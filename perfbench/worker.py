"""One benchmark process: imports eventbounds and serves requests from stdin.

Started by ``run.py`` as ``python3 perfbench/worker.py JOB SPAWNED`` with the
checkout's ``src`` on PYTHONPATH.  JOB is a JSON file naming the workload,
its input files and its requests; SPAWNED is the ``time.monotonic()``
reading taken just before the process was started.  The first line the
worker prints is ``{"setup_s": ...}``: interpreter start, imports, reading
the input text and the warm-up.  Every later stdin line
``{"index": i, "trace": 0|1, "digest": 0|1, "emit": 0|1}`` runs request i
and answers with one JSON line.  Checks run after the timed region.  Right
before and right after each request, outside its timed region, the worker
times a fixed calibration loop (:func:`calibrate`), so that run.py can
state each request's cost in units of what the host delivered meanwhile.

Spans are recorded only around calls into the package's public entry
points, one layer per entry point:

  ingest       EventSystem.from_payload, MomentSet.from_payload (with json.loads)
  moments      moment_set, MomentSet.restricted
  closed_form  evaluate_request at ell 2 or 3 without a formula
  engine       evaluate_request with formula "search" or ell >= 4
  conditional  PartitionField.from_payload, conditional_bound, expectation_aggregate
  oracle       exact_occurrence
  emit         to_payload plus json.dumps
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from math import comb

SPAWNED = float(sys.argv[2]) if __name__ == "__main__" else 0.0

from eventbounds import numerics  # noqa: E402  (import time is part of setup)
from eventbounds.certificates import BoundRequest  # noqa: E402
from eventbounds.conditional import (  # noqa: E402
    PartitionField,
    conditional_bound,
    expectation_aggregate,
)
from eventbounds.core import EventSystem, exact_occurrence  # noqa: E402
from eventbounds.dispatch import evaluate_request  # noqa: E402
from eventbounds.errors import NotApplicableError  # noqa: E402
from eventbounds.moments import MomentSet, moment_set  # noqa: E402

SIDES = ("upper", "lower")
TARGETS = ("at-least", "exactly")
FLOAT_TOLERANCE = 1e-9
DIGEST_FIELDS = ("side", "target", "r", "d", "ell", "formula", "value", "clamped")
TERM_FIELDS = ("j", "coefficients", "index_set", "value")
CAL_ITERATIONS = 1000  # one "cal": the time of this many calibration iterations


class Span:
    """One recorded interval: [name, start, end, parent index, counts]."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None, {}]

    def __enter__(self) -> "Span":
        stack = self.tracer.stack
        self.record[3] = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()

    def count(self, **counts: int) -> None:
        self.record[4].update(counts)


class Tracer:
    """Spans of one request, kept in memory and returned with its result."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []

    def span(self, name: str, **counts: object) -> Span:
        span = Span(self, name)
        span.record[4].update(counts)
        return span


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, **counts: int) -> None:
        pass


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    spans: list = []
    _span = _NullSpan()

    def span(self, name: str, **counts: object) -> _NullSpan:
        return self._span


NULL_TRACER = NullTracer()


def digest_line(payload: dict) -> str:
    """The fields of a certificate payload that the digest covers."""
    kept = {key: payload[key] for key in DIGEST_FIELDS}
    kept["terms"] = [{key: t[key] for key in TERM_FIELDS} for t in payload.get("terms", ())]
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


def _truth(distribution, r: int, target: str):
    return sum(distribution[r:]) if target == "at-least" else distribution[r]


def _brackets(side: str, clamped, truth, exact: bool) -> bool:
    """Zero tolerance in exact mode, FLOAT_TOLERANCE in float mode."""
    if not exact:
        clamped, truth = float(clamped), float(truth)
        return truth <= clamped + FLOAT_TOLERANCE if side == "upper" else clamped <= truth + FLOAT_TOLERANCE
    return truth <= clamped if side == "upper" else clamped <= truth


class Outcome:
    """What one request produced, for the checks, the digest and parity."""

    def __init__(self) -> None:
        self.certificates: list = []  # every certificate the request produced, in order
        self.not_applicable = 0
        self.failures: list[str] = []
        self.emitted: dict[str, str] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------- verify-small


def serve_verify_small(spec: dict, inputs: dict, tracer, out: Outcome) -> dict:
    n, mode = spec["n"], spec["mode"]
    with tracer.span("ingest") as span:
        system = EventSystem.from_payload(json.loads(spec["system_text"]))
    span.count(atoms=len(system.weights))
    with tracer.span("oracle"):
        occurrence = exact_occurrence(system)
    windows = {}
    for d in range(n):
        with tracer.span("moments") as span:
            full = moment_set(system, d, min(3, n - d + 1))
            windows[d, 2] = full.restricted(2)
        span.count(tuples=2 * len(full))
        if full.ell == 3:
            windows[d, 3] = full
    grid = {}
    for d in range(n):
        for r in range(max(d, 1), n + 1):
            for ell in (2, 3):
                if (d, ell) not in windows:
                    continue
                for target in TARGETS:
                    for side in SIDES:
                        request = BoundRequest(r=r, d=d, ell=ell, side=side, target=target)
                        with tracer.span("closed_form", mode=mode, attempts=1) as span:
                            try:
                                certificate = evaluate_request(windows[d, ell], request)
                            except NotApplicableError:
                                certificate = None
                        if certificate is None:
                            out.not_applicable += 1
                            continue
                        span.count(terms=len(certificate.terms), certificates=1)
                        grid[r, d, ell, target, side] = certificate
    search = {}
    s = spec["search"]
    for ell in (2, 3):
        for side in SIDES:
            request = BoundRequest(r=s["r"], d=s["d"], ell=ell, side=side, target=s["target"], formula="search")
            window = windows[s["d"], ell]
            with tracer.span("engine") as span:
                search[ell, side] = evaluate_request(window, request)
            span.count(tuples=len(window), index_sets_possible=len(window) * comb(n - s["d"] + 1, ell))
    c = spec["conditional"]
    request = BoundRequest(r=c["r"], d=c["d"], ell=c["ell"], side=c["side"], target=c["target"])
    with tracer.span("conditional") as span:
        partition = PartitionField.from_payload(json.loads(spec["partition_text"]), n=n)
        blocks = conditional_bound(system, partition, request)
    span.count(blocks=len(blocks))
    with tracer.span("closed_form", mode=mode, attempts=1) as span:
        unconditional = evaluate_request(windows[c["d"], c["ell"]], request)
    span.count(terms=len(unconditional.terms), certificates=1)
    with tracer.span("conditional"):
        aggregated = expectation_aggregate(blocks, unconditional)
    for (ell, side), certificate in search.items():
        with tracer.span("emit") as span:
            text = json.dumps(certificate.to_payload(), indent=2)
        span.count(bytes=len(text))
    with tracer.span("emit") as span:
        text = json.dumps(aggregated.to_payload(), indent=2)
    span.count(bytes=len(text))
    out.certificates = (
        list(grid.values()) + list(search.values())
        + [b.certificate for b in blocks] + [unconditional, aggregated]
    )
    return {"occurrence": occurrence, "grid": grid, "search": search, "blocks": blocks,
            "unconditional": unconditional, "aggregated": aggregated, "exact": mode == "exact"}


def check_verify_small(spec: dict, state: dict, out: Outcome) -> None:
    exact = state["exact"]
    truth = [Fraction(x) for x in spec["truth"]]
    oracle = state["occurrence"].p
    out.check(
        all((a == b) if exact else abs(float(a) - float(b)) <= FLOAT_TOLERANCE for a, b in zip(oracle, truth)),
        "oracle disagrees with the benchmark's own occurrence distribution",
    )
    for (r, d, ell, target, side), certificate in state["grid"].items():
        out.check(
            _brackets(side, certificate.clamped, _truth(oracle, r, target), exact),
            f"sandwich r={r} d={d} ell={ell} side={side} target={target} "
            f"clamped={certificate.clamped} truth={_truth(oracle, r, target)}",
        )
    s = spec["search"]
    for (ell, side), certificate in state["search"].items():
        closed = state["grid"].get((s["r"], s["d"], ell, s["target"], side))
        if closed is None:
            continue
        out.check(
            _brackets(side, closed.value, certificate.value, exact),
            f"search looser than closed form r={s['r']} d={s['d']} ell={ell} side={side} "
            f"target={s['target']} search={certificate.value} closed={closed.value}",
        )
    c = spec["conditional"]
    for block in state["blocks"]:
        block_truth = _truth([Fraction(x) for x in spec["block_truths"][block.index]], c["r"], c["target"])
        out.check(
            _brackets(c["side"], block.certificate.clamped, block_truth, exact),
            f"conditional block={block.index} {c} clamped={block.certificate.clamped} truth={block_truth}",
        )
    for name in ("unconditional", "aggregated"):
        out.check(
            _brackets(c["side"], state[name].clamped, _truth(truth, c["r"], c["target"]), exact),
            f"conditional {name} {c} clamped={state[name].clamped}",
        )


# ------------------------------------------------------------------ bound-wide


def serve_bound_wide(spec: dict, inputs: dict, tracer, out: Outcome) -> dict:
    with tracer.span("ingest") as span:
        system = EventSystem.from_payload(json.loads(inputs["system"]))
    span.count(atoms=len(system.weights))
    if spec["kind"] == "conditional":
        request = BoundRequest(r=spec["r"], d=spec["d"], ell=spec["ell"], side=spec["side"], target=spec["target"])
        with tracer.span("conditional") as span:
            partition = PartitionField.from_payload(json.loads(inputs["partition"]), n=system.n)
            blocks = conditional_bound(system, partition, request)
        span.count(blocks=len(blocks))
        with tracer.span("moments") as span:
            moments = moment_set(system, request.d, request.ell)
        span.count(tuples=len(moments))
        with tracer.span("closed_form", mode="exact", attempts=1) as span:
            unconditional = evaluate_request(moments, request)
        span.count(terms=len(unconditional.terms), certificates=1)
        with tracer.span("conditional"):
            aggregated = expectation_aggregate(blocks, unconditional)
        with tracer.span("emit") as span:
            text = json.dumps(aggregated.to_payload(), indent=2)
        span.count(bytes=len(text))
        out.emitted["conditional"] = text
        out.certificates = [b.certificate for b in blocks] + [unconditional, aggregated]
        return {"blocks": blocks, "unconditional": unconditional, "aggregated": aggregated}
    certificates = {}
    for d in spec["ds"]:
        with tracer.span("moments") as span:
            moments = moment_set(system, d, spec["ell"])
        span.count(tuples=len(moments))
        for side in SIDES:
            for target in TARGETS:
                request = BoundRequest(r=spec["r"], d=d, ell=spec["ell"], side=side, target=target)
                with tracer.span("closed_form", mode="exact", attempts=1) as span:
                    certificates[d, side, target] = evaluate_request(moments, request)
                span.count(terms=len(certificates[d, side, target].terms), certificates=1)
    with tracer.span("oracle"):
        occurrence = exact_occurrence(system)
    for (d, side, target), certificate in certificates.items():
        truth = _truth(occurrence.p, spec["r"], target)
        with tracer.span("emit") as span:
            text = json.dumps({"certificate": certificate.to_payload(), "exact": str(truth)}, indent=2)
        span.count(bytes=len(text))
        out.emitted[f"d{d}-{side}-{target}"] = text
    out.certificates = list(certificates.values())
    return {"certificates": certificates, "occurrence": occurrence}


def check_bound_wide(spec: dict, state: dict, out: Outcome) -> None:
    truth = [Fraction(x) for x in spec["truth"]]
    if spec["kind"] == "conditional":
        for block in state["blocks"]:
            block_truth = _truth([Fraction(x) for x in spec["block_truths"][block.index]], spec["r"], spec["target"])
            out.check(
                _brackets(spec["side"], block.certificate.clamped, block_truth, True),
                f"conditional block={block.index} clamped={block.certificate.clamped} truth={block_truth}",
            )
        for name in ("unconditional", "aggregated"):
            out.check(
                _brackets(spec["side"], state[name].clamped, _truth(truth, spec["r"], spec["target"]), True),
                f"conditional {name} clamped={state[name].clamped}",
            )
        return
    oracle = state["occurrence"].p
    out.check(list(oracle) == truth, "oracle disagrees with the benchmark's own occurrence distribution")
    for (d, side, target), certificate in state["certificates"].items():
        out.check(
            _brackets(side, certificate.clamped, _truth(oracle, spec["r"], target), True),
            f"sandwich r={spec['r']} d={d} side={side} target={target} clamped={certificate.clamped}",
        )


# -------------------------------------------------------------- search-moments


def serve_search_moments(spec: dict, inputs: dict, tracer, out: Outcome) -> dict:
    with tracer.span("ingest") as span:
        moments = MomentSet.from_payload(json.loads(inputs[spec["input"]]))
    request = BoundRequest(r=spec["r"], d=spec["d"], ell=spec["ell"], side=spec["side"], target=spec["target"])
    with tracer.span("engine") as span:
        certificate = evaluate_request(moments, request)
    span.count(tuples=len(moments), index_sets_possible=len(moments) * comb(moments.n - moments.d + 1, spec["ell"]))
    with tracer.span("emit") as span:
        text = json.dumps({"certificate": certificate.to_payload()}, indent=2)
    span.count(bytes=len(text))
    out.emitted["bound"] = text
    out.certificates = [certificate]
    return {"certificate": certificate}


def check_search_moments(spec: dict, state: dict, out: Outcome) -> None:
    certificate = state["certificate"]
    known = {tuple(j): Fraction(zv) for j, zv in spec["zv"]}
    out.check(len(certificate.terms) == len(known), f"{len(certificate.terms)} terms for {len(known)} tuples")
    for term in certificate.terms:
        zv = known.get(tuple(term.j.indices))
        ok = zv is not None and _brackets(spec["side"], term.value, zv, True)
        out.check(ok, f"term j={list(term.j.indices)} value={term.value} does not bracket z.v={zv}")


WORKLOADS = {
    "verify-small": (serve_verify_small, check_verify_small),
    "bound-wide": (serve_bound_wide, check_bound_wide),
    "search-moments": (serve_search_moments, check_search_moments),
}


def calibrate(iterations: int) -> float:
    """Seconds per CAL_ITERATIONS of a fixed stdlib Fraction loop, now.

    The loop shares no code with the package, so a change to the package
    cannot move it; it moves only with the speed the host gives this
    process at the moment.  The cyclic collector is paused while it runs:
    the loop makes no cycles, and a collection over a request's large heap
    would otherwise land in the calibration at random.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(iterations):
            table[i * 7919 % 100_003] = Fraction(i % 97 + 1, 7) * Fraction(3, i % 13 + 1)
        sum(table.values(), Fraction(0))
        return (time.perf_counter() - start) * CAL_ITERATIONS / iterations
    finally:
        gc.enable()


def handle(job: dict, inputs: dict, line: dict) -> dict:
    """Run one request, then check it outside the timed region."""
    spec = job["requests"][line["index"]]
    serve, check = WORKLOADS[job["workload"]]
    tracer = Tracer() if line.get("trace") else NULL_TRACER
    out = Outcome()
    state = None
    cal_before = calibrate(job["calibration_iterations"])
    start = time.perf_counter()
    try:
        with tracer.span("request"):
            state = serve(spec, inputs, tracer, out)
    except NotApplicableError as exc:
        out.not_applicable += 1
        out.failures.append(f"unexpected not-applicable: {exc}")
    except Exception:  # a request that raises is a failed request, not a crash
        out.failures.append("raised " + traceback.format_exc(limit=3).replace("\n", " | "))
    elapsed = time.perf_counter() - start
    cal_s = (cal_before + calibrate(job["calibration_iterations"])) / 2
    if state is not None:
        try:
            check(spec, state, out)
        except Exception:
            out.failures.append("check raised " + traceback.format_exc(limit=3).replace("\n", " | "))
    payloads = [c.to_payload() for c in out.certificates] if line.get("digest") else []
    return {
        "id": spec["id"],
        "time_s": elapsed,
        "cal_s": cal_s,
        "certificates": len(out.certificates),
        "not_applicable": out.not_applicable,
        "failures": out.failures,
        "digest": hashlib.sha256("\n".join(map(digest_line, payloads)).encode()).hexdigest() if payloads else None,
        "digested": len(payloads),
        "emitted": out.emitted if line.get("emit") else {},
        "spans": tracer.spans,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle_:
        job = json.load(handle_)
    inputs = {}
    for name, path in job["inputs"].items():
        with open(path, encoding="utf-8") as handle_:
            inputs[name] = handle_.read()
    for index in job.get("warmup", ()):
        handle(job, inputs, {"index": index})
    ready = {
        "setup_s": time.monotonic() - SPAWNED,
        "backend": getattr(numerics, "RATIONAL_BACKEND", "unknown"),
    }
    print(json.dumps(ready), flush=True)
    for raw in sys.stdin:
        print(json.dumps(handle(job, inputs, json.loads(raw))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
