"""Command-line front end.

Commands: exact (oracle probabilities), bound (one certificate), sweep
(all certificates for a system), witness (per-tuple sharpness witnesses),
conditional (per-block bounds and their expectation), verify (randomized
property suites).  Output is JSON by default, CSV on request.  Exit
codes: 0 success, 2 input or parse error, 3 bound not applicable,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from typing import Optional

from .certificates import SIDES, TARGET_AT_LEAST, TARGETS, BoundRequest, header_payload
from .conditional import PartitionField, conditional_bound, expectation_aggregate
from .core import EventSystem, exact_occurrence
from .dispatch import evaluate_request, request_grid
from .engine import sharpness_witness
from .errors import EventBoundsError, InputFormatError, NotApplicableError
from .moments import MomentSet, moment_matrix, moment_set
from .numerics import Number, difference, encode_number, exactify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_VERIFY = 4


def _load_json(path: str, exact: bool = False) -> object:
    """The file's JSON; with ``exact``, every float literal is read as the exact
    rational of its double's shortest decimal text (0.10000000000000001 is 1/10),
    and one that is not finite (NaN, 1e400) fails."""
    hook = (lambda text: exactify(float(text))) if exact else None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=hook, parse_constant=hook)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from None


def _load_system(args: argparse.Namespace) -> EventSystem:
    return EventSystem.from_payload(_load_json(args.input, args.exact_arithmetic))


def _emit(args: argparse.Namespace, payload: object, header: list[str], rows: list[dict]) -> None:
    """Print the payload as JSON, or as CSV with one line per row: the row's
    fields named in ``header``, each empty where the row has none."""
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _request_from(args: argparse.Namespace) -> BoundRequest:
    return BoundRequest(
        r=args.r,
        d=args.d,
        ell=args.ell,
        side=args.side,
        target=args.target,
        m=getattr(args, "m", None),
    )


def _gap(certificate, truth: Number) -> Number:
    if certificate.side == "upper":
        return difference(certificate.clamped, truth)
    return difference(truth, certificate.clamped)


def cmd_exact(args: argparse.Namespace) -> int:
    system = _load_system(args)
    occurrence = exact_occurrence(system)
    payload = {
        "n": system.n,
        "p": [encode_number(value) for value in occurrence.p],
        "at_least": [
            encode_number(occurrence.at_least(r)) for r in range(1, system.n + 1)
        ],
    }
    rows = [{"quantity": "p", "index": i, "value": v} for i, v in enumerate(payload["p"])]
    rows += [
        {"quantity": "P", "index": r, "value": v} for r, v in enumerate(payload["at_least"], 1)
    ]
    _emit(args, payload, ["quantity", "index", "value"], rows)
    return EXIT_OK


def _source(args: argparse.Namespace, request: BoundRequest) -> tuple[Optional[EventSystem], MomentSet]:
    """The input system (None for moment input) and a moment set for the checked request."""
    if args.input:
        system = _load_system(args)
        request.check(system.n)
        return system, moment_set(system, request.d, request.ell)
    moments = MomentSet.from_payload(_load_json(args.moments, args.exact_arithmetic))
    if moments.d != request.d:
        raise InputFormatError(f"moment file has d={moments.d}, request says d={request.d}")
    request.check(moments.n)
    return None, moments


def cmd_bound(args: argparse.Namespace) -> int:
    request = _request_from(args)
    system, moments = _source(args, request)
    certificate = evaluate_request(moments, request)
    payload: dict = {"certificate": certificate.to_payload()}
    if system is not None:
        truth = exact_occurrence(system).probability(request.r, request.target)
        payload["exact"] = encode_number(truth)
        payload["gap"] = encode_number(_gap(certificate, truth))
    header = ["side", "target", "r", "d", "ell", "formula", "value", "clamped", "exact", "gap"]
    _emit(args, payload, header, [{**payload["certificate"], **payload}])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    system = _load_system(args)
    occurrence = exact_occurrence(system)
    header = ["r", "d", "ell", "side", "target", "formula", "value", "clamped", "exact", "gap"]
    entries = []
    for window, request in request_grid(system):
        certificate = evaluate_request(window, request)
        truth = occurrence.probability(request.r, request.target)
        fields = header_payload(certificate)
        fields["exact"] = encode_number(truth)
        fields["gap"] = encode_number(_gap(certificate, truth))
        entries.append({column: fields[column] for column in header})
    _emit(args, {"n": system.n, "rows": entries}, header, entries)
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    request = replace(_request_from(args), formula="search")
    _, moments = _source(args, request)
    certificate = evaluate_request(moments, request)
    fmat = moment_matrix(moments.n, moments.d, request.ell)
    witnesses = [
        {
            "j": list(term.j),
            "value": encode_number(term.value),
            **sharpness_witness(fmat, term.index_set, vector.values[: request.ell]).to_payload(),
        }
        for term, vector in zip(certificate.terms, moments)
    ]
    payload = {
        "side": args.side,
        "target": args.target,
        "r": args.r,
        "d": moments.d,
        "ell": args.ell,
        "value": encode_number(certificate.value),
        "clamped": encode_number(certificate.clamped),
        "attained": all(entry["nonnegative"] for entry in witnesses),
        "witnesses": witnesses,
    }
    rows = [
        {**entry, **{key: " ".join(map(str, entry[key])) for key in ("j", "index_set", "z")}}
        for entry in witnesses
    ]
    _emit(args, payload, ["j", "index_set", "value", "z", "nonnegative"], rows)
    return EXIT_OK


def cmd_conditional(args: argparse.Namespace) -> int:
    system = _load_system(args)
    partition = PartitionField.from_payload(_load_json(args.partition), n=system.n)
    request = _request_from(args)
    blocks = conditional_bound(system, partition, request)
    unconditional = evaluate_request(moment_set(system, request.d, request.ell), request)
    payload = expectation_aggregate(blocks, unconditional).to_payload()
    rows = [{"kind": "block", **block, **block["certificate"]} for block in payload["blocks"]]
    rows.append({"kind": "aggregate", "weight": 1, **payload})
    rows.append({"kind": "unconditional", "weight": 1, **payload["unconditional"]})
    _emit(args, payload, ["kind", "block", "weight", "value", "clamped", "formula"], rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_all  # only this command needs the suites

    reports = run_all(args.trials, args.n_max, args.seed)
    for report in reports:
        print(f"{report.line()} in {report.elapsed:.2f} s", file=sys.stderr)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "n_max": args.n_max,
        "suites": [
            {
                "name": report.name,
                "passed": report.passed,
                "trials": report.trials,
                "checks": report.checks,
                "failures": list(report.failures),
            }
            for report in reports
        ],
        "passed": all(report.passed for report in reports),
    }
    rows = [
        {**suite, "suite": suite["name"], "failures": len(suite["failures"])}
        for suite in payload["suites"]
    ]
    _emit(args, payload, ["suite", "passed", "trials", "checks", "failures"], rows)
    if not payload["passed"]:
        for report in reports:
            for failure in report.failures:
                print(f"reproducer: {failure}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, reads_input: bool = True) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    if reads_input:
        parser.add_argument(
            "--exact-arithmetic",
            action="store_true",
            help=(
                "read each float literal as the exact rational of its double's "
                "shortest decimal text, so 0.10000000000000001 is 1/10"
            ),
        )


def _add_request(parser: argparse.ArgumentParser, with_m: bool = True) -> None:
    parser.add_argument("--r", type=int, required=True, help="occurrence threshold")
    parser.add_argument("--d", type=int, default=0, help="conditioning order (tuple size)")
    parser.add_argument("--ell", type=int, default=3, help="number of moment orders")
    parser.add_argument("--target", choices=TARGETS, default=TARGET_AT_LEAST)
    parser.add_argument("--side", choices=SIDES, default="upper")
    if with_m:
        parser.add_argument("--m", type=int, default=None, help="pin the window position")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventbounds",
        description=(
            "Sharp upper and lower bounds on the probability that at least r "
            "(or exactly r) of n events occur, from low-order binomial moments."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    exact_cmd = commands.add_parser("exact", help="exact occurrence probabilities")
    exact_cmd.add_argument("--input", required=True, help="event-system JSON file")
    _add_common(exact_cmd)
    exact_cmd.set_defaults(handler=cmd_exact)

    bound_cmd = commands.add_parser("bound", help="one bound certificate")
    source = bound_cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="event-system JSON file")
    source.add_argument("--moments", help="moment-set JSON file")
    _add_request(bound_cmd)
    _add_common(bound_cmd)
    bound_cmd.set_defaults(handler=cmd_bound)

    sweep_cmd = commands.add_parser("sweep", help="all certificates for a system")
    sweep_cmd.add_argument("--input", required=True, help="event-system JSON file")
    _add_common(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    witness_cmd = commands.add_parser("witness", help="sharpness witnesses per tuple")
    wsource = witness_cmd.add_mutually_exclusive_group(required=True)
    wsource.add_argument("--input", help="event-system JSON file")
    wsource.add_argument("--moments", help="moment-set JSON file")
    _add_request(witness_cmd, with_m=False)
    _add_common(witness_cmd)
    witness_cmd.set_defaults(handler=cmd_witness)

    conditional_cmd = commands.add_parser(
        "conditional", help="per-block bounds and their expectation"
    )
    conditional_cmd.add_argument("--input", required=True, help="event-system JSON file")
    conditional_cmd.add_argument("--partition", required=True, help="partition JSON file")
    _add_request(conditional_cmd)
    _add_common(conditional_cmd)
    conditional_cmd.set_defaults(handler=cmd_conditional)

    verify_cmd = commands.add_parser("verify", help="randomized property suites")
    verify_cmd.add_argument("--trials", type=int, default=1000)
    verify_cmd.add_argument("--n-max", type=int, default=8, dest="n_max")
    verify_cmd.add_argument("--seed", type=int, default=42)
    _add_common(verify_cmd, reads_input=False)
    verify_cmd.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (EventBoundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
