"""Layered benchmark of eventbounds: seeded workloads, checked certificates,
end-to-end metrics from untraced runs and per-layer metrics from traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads (closed loop, one client, one request at a time):

  verify-small    one long-lived process, warmed up; each request takes one
                  small system (exact or float copy) through ingest, the
                  oracle, every moment set, the full closed-form grid, a
                  search at ell 2 and 3 and one conditional request.
                  Thousands of tiny calls, mostly closed form.
  bound-wide      one fresh interpreter per request on a 20-event system of
                  50,000 atoms: `bound --input`-shaped requests at d = 0, 1, 2
                  and one `conditional`-shaped request.  Ingest and moments
                  dominate; closed form is about 1%.
  search-moments  one fresh interpreter per request on moment-only input,
                  `bound --moments`-shaped at ell >= 4, so the index-set
                  engine takes nearly all the time.  Fresh interpreters keep
                  the engine's process-wide solve cache cold, as on the CLI.

A run repeats whole passes over a fixed request list until --seconds is
used up (at least one pass), so every run does the same mix of work.
Each request is timed in seconds and in cals, one cal being the time the
same process takes, right before and after the request, for a fixed
calibration loop that shares no code with the package (worker.calibrate).  With
--trace 1 the run alternates untraced and traced passes over the same
requests; per-layer figures come from the traced passes, per pass, and
trace_overhead_pct compares the two.  Every certificate is checked after
its timed region; each failed check prints a one-line reproducer to stderr.
The last line of stdout is one JSON object with the metrics that
BENCHMARK.json names for the run's mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from inputs import FULL, SMOKE, Sizes, bound_wide_inputs, search_moments_inputs, verify_small_plan

WORKLOADS = ("verify-small", "bound-wide", "search-moments")
LAYERS = ("ingest", "moments", "closed_form", "engine", "conditional", "oracle", "emit")
LAYER_COUNTS = {  # extra per-layer counts: span count key -> unit
    "ingest": {"atoms": "count"},
    "moments": {"tuples": "count"},
    "closed_form": {"terms": "count"},
    "engine": {"tuples": "count", "index_sets_possible": "count"},
    "conditional": {"blocks": "count"},
    "emit": {"bytes": "bytes"},
}
SETUP_SAMPLES = 3  # set-ups measured per verify-small run; the last one serves
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
PROCESS_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The run could not be completed; no result is printed."""


class Worker:
    """One worker process, driven in a closed loop over stdin/stdout."""

    def __init__(self, job_path: str, env: dict) -> None:
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, job_path, repr(spawned)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = ready["setup_s"]
        self.backend = ready["backend"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, line: dict) -> dict:
        self.proc.stdin.write(json.dumps(line) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def prepare(workload: str, seed: int, sizes: Sizes, directory: str) -> dict:
    """Generate the workload's inputs from the seed and write its job file."""
    if workload == "verify-small":
        requests = verify_small_plan(seed, sizes)
        job = {"inputs": {}, "requests": requests, "warmup": list(range(2 * len(sizes.small_n))),
               "calibration_iterations": 300}
        parity = None
    elif workload == "bound-wide":
        system, partition, requests = bound_wide_inputs(seed, sizes)
        job = {"inputs": {"system": _write(directory, "system.json", system),
                          "partition": _write(directory, "partition.json", partition)},
               "requests": requests, "calibration_iterations": 30_000}
        first = requests[1]
        parity = (1, "d1-upper-at-least", ["bound", "--input", job["inputs"]["system"], "--r", str(first["r"]),
                                           "--d", "1", "--ell", "3", "--side", "upper", "--target", "at-least"])
    else:
        files, requests = search_moments_inputs(seed, sizes)
        job = {"inputs": {name: _write(directory, f"moments-{name}.json", text) for name, text in files.items()},
               "requests": requests, "calibration_iterations": 10_000}
        first = requests[0]
        parity = (0, "bound", ["bound", "--moments", job["inputs"][first["input"]], "--r", str(first["r"]),
                               "--d", str(first["d"]), "--ell", str(first["ell"]),
                               "--side", first["side"], "--target", first["target"]])
    job["workload"] = workload
    job_path = _write(directory, "job.json", json.dumps(job))
    return {"path": job_path, "requests": len(requests), "parity": parity,
            "per_request_process": workload != "verify-small"}


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes, env: dict, directory: str) -> dict:
    """Run whole passes until the time is used up; return raw results."""
    job = prepare(workload, seed, sizes, directory)
    setups, results, backend = [], [], None
    server = None
    try:
        if not job["per_request_process"]:
            for _ in range(SETUP_SAMPLES - 1):
                probe = Worker(job["path"], env)
                setups.append(probe.setup_s)
                probe.close()
            server = Worker(job["path"], env)
            setups.append(server.setup_s)
            backend = server.backend

        def serve(line: dict) -> dict:
            nonlocal backend
            if server is not None:
                return server.request(line)
            worker = Worker(job["path"], env)
            try:
                setups.append(worker.setup_s)
                backend = worker.backend
                return worker.request(line)
            finally:
                worker.close()

        start = time.monotonic()
        units = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                for index in range(job["requests"]):
                    first = units == 0 and not traced
                    result = serve({"index": index, "trace": int(traced), "digest": int(first), "emit": int(first)})
                    result.update(traced=traced, unit=units, index=index)
                    results.append(result)
            units += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / units / 2 > seconds:
                break
    finally:
        if server is not None:
            server.close()
    parity = _cli_parity(job["parity"], results, env) if job["parity"] else None
    return {"setups": setups, "results": results, "units": units, "backend": backend, "parity": parity}


def _cli_parity(parity: tuple, results: list[dict], env: dict) -> dict:
    """Run one request through the CLI and compare with the worker's payload."""
    index, key, argv = parity
    first = next((r for r in results if r["index"] == index and r["emitted"]), None)
    emitted = first["emitted"].get(key) if first else None
    done = subprocess.run([sys.executable, "-m", "eventbounds.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=PROCESS_TIMEOUT_S)
    ok = done.returncode == 0 and emitted is not None
    if ok:
        printed, expected = json.loads(done.stdout), json.loads(emitted)
        ok = all(printed.get(field) == expected[field] for field in expected)
    return {"ok": ok, "argv": argv, "returncode": done.returncode}


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def layer_rows(results: list[dict], units: int) -> list[tuple]:
    """Per-layer calls, self time, share and counts from the traced passes,
    per pass.  A span's self time is its duration minus its children's."""
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    request_time = sum(r["time_s"] for r in traced)
    calls = {name: 0 for name in (*LAYERS, "request")}
    self_s = dict.fromkeys(calls, 0.0)
    counts: dict[str, float] = {}
    mode_s = {"exact": 0.0, "float": 0.0}
    for result in traced:
        spans = result["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, parent, span_counts), inner in zip(spans, child):
            own = end - start - inner
            calls[name] += 1
            self_s[name] += own
            for key, value in span_counts.items():
                if key == "mode":
                    mode_s[value] += own
                else:
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    rows = []
    for name in LAYERS:
        rows.append((f"{name}.calls", calls[name] / units, "count"))
        rows.append((f"{name}.self_s", self_s[name] / units, "s"))
        rows.append((f"{name}.share", self_s[name] / request_time, "ratio"))
        for key, unit in LAYER_COUNTS.get(name, {}).items():
            rows.append((f"{name}.{key}", counts.get(f"{name}.{key}", 0) / units, unit))
    attempts = counts.get("closed_form.attempts", 0)
    rows += [
        ("closed_form.exact_self_s", mode_s["exact"] / units, "s"),
        ("closed_form.float_self_s", mode_s["float"] / units, "s"),
        ("closed_form.useful_ratio", counts.get("closed_form.certificates", 0) / attempts if attempts else 0.0, "ratio"),
        ("request.self_s", self_s["request"] / units, "s"),
        ("layer_coverage", sum(self_s[name] for name in LAYERS) / request_time, "ratio"),
        ("trace_overhead_pct", 100 * (sum(map(_cals, traced)) / sum(map(_cals, untraced)) - 1), "%"),
    ]
    samples = len(traced)
    return [(name, value, unit, samples) for name, value, unit in rows]


def _per_request(results: list[dict], cost) -> tuple[list[float], int]:
    """Each request's median cost over the run's passes, and the
    certificates of one pass."""
    by_request: dict[int, list[dict]] = {}
    for result in results:
        by_request.setdefault(result["index"], []).append(result)
    costs = [statistics.median(map(cost, group)) for group in by_request.values()]
    return costs, sum(group[0]["certificates"] for group in by_request.values())


def _seconds(result: dict) -> float:
    return result["time_s"]


def _cals(result: dict) -> float:
    """The request's time in cals: host time for the calibration loop,
    timed by the same process right before and after the request."""
    return result["time_s"] / result["cal_s"]


def end_to_end_rows(workload: str, raw: dict) -> list[tuple]:
    """Wall-clock metrics, and the same measurements in cals.

    The host's speed drifts: on a shared 2-CPU Xeon host the calibration
    loop's own time varied by a factor of 1.85 across runs minutes apart,
    and wall-clock throughput moved with it.  Dividing each request by the
    cal measured beside it removes most of that drift and leaves the
    program's own cost, so the cal metrics are the ones BENCHMARK.json
    bounds; the wall-clock ones are printed beside them.
    """
    untraced = [r for r in raw["results"] if not r["traced"]]
    samples = len(untraced)
    rows = []
    for name, unit, cost in (("cal", "cal", _cals), ("s", "s", _seconds)):
        costs, certificates = _per_request(untraced, cost)
        rows += [
            (f"certs_per_{name}", certificates / sum(costs), f"certificates/{unit}", samples),
            (f"request_{name}_p50", statistics.median(costs), unit, samples),
        ]
        if workload == "verify-small":
            rows.append((f"request_{name}_p90", _quantile([cost(r) for r in untraced], 90), unit, samples))
    rows += [
        ("cal_ms", 1000 * statistics.median(r["cal_s"] for r in untraced), "ms", samples),
        ("setup_s", statistics.median(raw["setups"]), "s", len(raw["setups"])),
        ("peak_rss_mb", max(r["rss_mb"] for r in raw["results"]), "MB", len(raw["results"])),
    ]
    return rows


def metadata(seed: int, trace: bool, backend: str) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        with open(".git/HEAD", encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        commit = head
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed, "trace": int(trace), "backend": backend}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    """One benchmark run; returns everything the report prints."""
    if not os.path.isfile(os.path.join("src", "eventbounds", "__init__.py")):
        raise BenchmarkError("src/eventbounds not found: run from the root of an eventbounds checkout")
    work = os.path.abspath(".bench_work")
    os.makedirs(work, exist_ok=True)
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory(dir=work) as directory:
        raw = measure(workload, seed, seconds, trace, sizes, env, directory)
    results = raw["results"]
    failed_requests = [r for r in results if r["failures"]]
    attempted = len(results) + (raw["parity"] is not None)
    failed = len(failed_requests) + (raw["parity"] is not None and not raw["parity"]["ok"])
    rows = end_to_end_rows(workload, raw) if not trace else layer_rows(results, raw["units"])
    rows.append(("failed_ratio", failed / attempted, "ratio", attempted))
    first_pass = [r for r in results if r["digest"]]
    digest = hashlib.sha256("".join(r["digest"] for r in first_pass).encode()).hexdigest()
    reproducers = [
        f"perfbench FAILED workload={workload} seed={seed} request={r['id']} (index {r['index']}): {message}"
        for r in failed_requests for message in r["failures"]
    ]
    if raw["parity"] is not None and not raw["parity"]["ok"]:
        reproducers.append(
            f"perfbench FAILED workload={workload} seed={seed} request=cli-parity: "
            f"python3 -m eventbounds.cli {' '.join(raw['parity']['argv'])} "
            f"(exit {raw['parity']['returncode']}) differs from the worker's payload"
        )
    return {
        "workload": workload, "meta": metadata(seed, trace, raw["backend"]), "rows": rows,
        "attempted": attempted, "failed": failed, "reproducers": reproducers,
        "digest": digest, "digested": sum(r["digested"] for r in first_pass),
        "passes": raw["units"], "requests": len(results),
        "not_applicable": sum(r["not_applicable"] for r in results),
        "parity": raw["parity"], "spans": [(r["id"], r["unit"], r["spans"]) for r in results if r["traced"]],
    }


def report(outcome: dict, names: list[dict]) -> None:
    """Print the human-readable report, save it, and print the result line."""
    meta = outcome["meta"]
    for line in outcome["reproducers"]:
        print(line, file=sys.stderr)
    print(f"perfbench workload={outcome['workload']} " + " ".join(f"{k}={v}" for k, v in meta.items()))
    parity = outcome["parity"]
    print(f"passes={outcome['passes']} requests={outcome['requests']} "
          f"not_applicable={outcome['not_applicable']} failed={outcome['failed']}/{outcome['attempted']} "
          f"cli_parity={'n/a' if parity is None else ('ok' if parity['ok'] else 'MISMATCH')}")
    print(f"digest sha256={outcome['digest']} over {outcome['digested']} certificates of the first pass")
    print(f"{'metric':32} {'value':>16} {'unit':16} samples")
    for name, value, unit, samples in outcome["rows"]:
        note = "  (computed from shapes)" if name == "engine.index_sets_possible" else ""
        print(f"{name:32} {value:16.6f} {unit:16} {samples}{note}")
    tag = f"{outcome['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    with open(os.path.join(".bench_work", f"report-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({k: v for k, v in outcome.items() if k != "spans"}, handle, indent=1)
    if meta["trace"]:
        with open(os.path.join(".bench_work", f"spans-{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump([{"request": rid, "pass": unit, "spans": spans} for rid, unit, spans in outcome["spans"]], handle)
    measured = {name: (value, unit) for name, value, unit, _ in outcome["rows"]}
    metrics = {}
    for entry in names:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise BenchmarkError(f"metric {entry['name']} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))


REPORTED_METRICS = {
    "end_to_end": ["certs_per_s", "request_s_p50", "certs_per_cal", "request_cal_p50", "setup_s",
                   "peak_rss_mb", "failed_ratio"],
    "per_layer": [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "share")]
    + [f"{layer}.{key}" for layer, keys in LAYER_COUNTS.items() for key in keys]
    + ["closed_form.exact_self_s", "closed_form.float_self_s", "closed_form.useful_ratio",
       "trace_overhead_pct", "failed_ratio"],
}


def smoke() -> int:
    """All three workloads at tiny sizes, traced and untraced: every metric
    is printed with a unit, and nothing fails."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome = run(workload, 1, 0.1, trace, SMOKE)
            expected = REPORTED_METRICS["per_layer" if trace else "end_to_end"]
            if workload == "verify-small" and not trace:
                expected = expected + ["request_s_p90", "request_cal_p90"]
            units = {name: unit for name, _, unit, _ in outcome["rows"]}
            problems += [f"{workload} trace={int(trace)}: {name} missing or without unit"
                         for name in expected if not units.get(name)]
            if outcome["failed"]:
                problems.append(f"{workload} trace={int(trace)}: failed_ratio is not 0")
                problems += outcome["reproducers"]
            print(f"smoke {workload} trace={int(trace)}: {len(outcome['rows'])} metrics, "
                  f"failed {outcome['failed']}/{outcome['attempted']}, digest {outcome['digest'][:12]}")
    for problem in problems:
        print(f"smoke FAILED {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, in seconds")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            names = json.load(handle)["per_layer" if args.trace else "end_to_end"]
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
        report(outcome, names)
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
