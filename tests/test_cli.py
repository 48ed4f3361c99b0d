"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from eventbounds.certificates import BoundCertificate
from eventbounds.cli import (
    EXIT_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXIT_VERIFY,
    build_parser,
    main,
)
from eventbounds.conditional import PartitionField
from eventbounds.core import EventSystem
from eventbounds.moments import moment_set
from eventbounds.verification import floatize, random_system


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fair3 = fair(3)
    paths = {
        "system": root / "system.json",
        "float_system": root / "float_system.json",
        "moments": root / "moments.json",
        "float_moments": root / "float_moments.json",
        "partition": root / "partition.json",
        "broken": root / "broken.json",
    }
    paths["system"].write_text(json.dumps(fair3.to_payload()))
    paths["float_system"].write_text(json.dumps(floatize(fair3).to_payload()))
    paths["moments"].write_text(json.dumps(moment_set(fair3, 1, 3).to_payload()))
    paths["float_moments"].write_text(
        json.dumps(moment_set(floatize(fair3), 1, 2).to_payload())
    )
    by_third_event = PartitionField(n=3, blocks=((4, 5, 6, 7), (0, 1, 2, 3)))
    paths["partition"].write_text(json.dumps(by_third_event.to_payload()))
    paths["broken"].write_text("{not json")
    return {name: str(path) for name, path in paths.items()}


def _binomial_60_moments(tmp_path, ell, d=0):
    """A moment file of Binomial(60, 1/2): s_k = C(60, k-1) / 2^(k-1) at
    d = 0, and s_k = C(60, k) / (60 2^k) at every j = [i] at d = 1."""
    if d:
        values = [str(Fraction(comb(60, k), 60 * 2**k)) for k in range(1, ell + 1)]
        records = [{"j": [i], "values": values} for i in range(1, 61)]
    else:
        values = [str(Fraction(comb(60, k - 1), 2 ** (k - 1))) for k in range(1, ell + 1)]
        records = [{"j": [], "values": values}]
    path = tmp_path / f"binomial60-d{d}-ell{ell}.json"
    path.write_text(json.dumps({"n": 60, "d": d, "ell": ell, "s": records}))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_json_output(self, capsys, files):
        code, out, _ = run(capsys, ["exact", "--input", files["system"]])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["p"] == ["1/8", "3/8", "3/8", "1/8"]
        assert payload["at_least"] == ["7/8", "1/2", "1/8"]

    def test_csv_output(self, capsys, files):
        code, out, _ = run(
            capsys, ["exact", "--input", files["system"], "--format", "csv"]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["quantity", "index", "value"]
        assert ["p", "0", "1/8"] in rows
        assert ["P", "1", "7/8"] in rows

    def test_float_weights_stay_float_without_the_flag(self, capsys, files):
        code, out, _ = run(capsys, ["exact", "--input", files["float_system"]])
        assert code == EXIT_OK
        assert json.loads(out)["p"][0] == 0.125

    def test_exact_arithmetic_flag_recovers_rationals(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["exact", "--input", files["float_system"], "--exact-arithmetic"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["p"] == ["1/8", "3/8", "3/8", "1/8"]

    def test_exact_arithmetic_reads_float_literals_as_rationals(self, capsys, tmp_path):
        # Each literal becomes the rational of its double, so a literal with
        # more digits than a double holds reads as the double's shortest text.
        long_tenth = "0.1000000000000000055511151231257827"
        cases = (("0.375", "0.625", ["3/8", "5/8"]), (long_tenth, "0.9", ["1/10", "9/10"]))
        for first, second, p in cases:
            path = tmp_path / "system.json"
            path.write_text(f'{{"n": 1, "weights": {{"0": {first}, "1": {second}}}}}')
            code, out, _ = run(capsys, ["exact", "--input", str(path), "--exact-arithmetic"])
            assert code == EXIT_OK
            assert json.loads(out)["p"] == p

    @pytest.mark.parametrize("literal", ["NaN", "1e400"])
    def test_exact_arithmetic_rejects_literals_that_are_not_finite(self, capsys, tmp_path, literal):
        path = tmp_path / "system.json"
        path.write_text(f'{{"n": 1, "weights": {{"0": {literal}, "1": 1}}}}')
        code, out, err = run(capsys, ["exact", "--input", str(path), "--exact-arithmetic"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "Invalid literal for Fraction" in err


class TestBound:
    def test_from_system_with_truth_and_gap(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["bound", "--input", files["system"], "--r", "2", "--d", "1", "--ell", "3"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["certificate"]["formula"] == "ub2"
        assert payload["certificate"]["value"] == "1/2"
        assert payload["exact"] == "1/2"
        assert payload["gap"] == "0"

    def test_exactly_lower_side(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "bound",
                "--input",
                files["system"],
                "--r", "2", "--d", "1", "--ell", "3",
                "--side", "lower",
                "--target", "exactly",
            ],
        )
        assert code == EXIT_OK
        assert json.loads(out)["certificate"]["value"] == "3/8"

    def test_from_moments_has_no_truth(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["bound", "--moments", files["moments"], "--r", "2", "--d", "1", "--ell", "3"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["certificate"]["value"] == "1/2"
        assert "exact" not in payload and "gap" not in payload

    def test_certificate_payload_round_trips(self, capsys, files):
        _, out, _ = run(
            capsys,
            ["bound", "--input", files["system"], "--r", "2", "--d", "1", "--ell", "3"],
        )
        rebuilt = BoundCertificate.from_payload(json.loads(out)["certificate"])
        assert rebuilt.value == Fraction(1, 2)
        assert rebuilt.formula_id == "ub2"

    @pytest.mark.parametrize(
        "clamped, accepted",
        [
            ("-1/10000000000000", False),
            ("10000000000001/10000000000000", False),
            (1 + 5e-10, True),
            (1 + 2e-9, False),
            (-2e-9, False),
        ],
    )
    def test_clamped_must_lie_in_the_unit_interval(self, capsys, files, clamped, accepted):
        # Exact values are checked exactly, floats with DEFAULT_TOLERANCE of slack.
        _, out, _ = run(
            capsys,
            ["bound", "--input", files["system"], "--r", "2", "--d", "1", "--ell", "3"],
        )
        payload = dict(json.loads(out)["certificate"], clamped=clamped)
        if accepted:
            assert BoundCertificate.from_payload(payload).clamped == clamped
        else:
            with pytest.raises(ValueError, match="outside"):
                BoundCertificate.from_payload(payload)

    def test_csv_row(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "bound",
                "--input", files["system"],
                "--r", "2", "--d", "1", "--ell", "3",
                "--format", "csv",
            ],
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "side", "target", "r", "d", "ell", "formula", "value", "clamped", "exact", "gap",
        ]
        assert rows[1] == ["upper", "at-least", "2", "1", "3", "ub2", "1/2", "1/2", "1/2", "0"]

    def test_exact_arithmetic_on_float_moments(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "bound",
                "--moments", files["float_moments"],
                "--r", "2", "--d", "1", "--ell", "2",
                "--exact-arithmetic",
            ],
        )
        assert code == EXIT_OK
        assert json.loads(out)["certificate"]["value"] == "3/4"


class TestSweep:
    def test_covers_the_request_grid(self, capsys, files):
        code, out, _ = run(capsys, ["sweep", "--input", files["system"]])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 3
        rows = payload["rows"]
        assert rows
        keys = {(row["r"], row["d"], row["ell"], row["side"], row["target"]) for row in rows}
        assert (1, 0, 2, "upper", "at-least") in keys
        assert (2, 0, 3, "lower", "exactly") in keys
        # d = 2 leaves only two moment positions at n = 3, so ell stops at 2
        assert (3, 2, 2, "lower", "exactly") in keys
        assert all(row["ell"] == 2 for row in rows if row["d"] == 2)

    def test_csv_matches_json_row_count(self, capsys, files):
        _, json_out, _ = run(capsys, ["sweep", "--input", files["system"]])
        _, csv_out, _ = run(
            capsys, ["sweep", "--input", files["system"], "--format", "csv"]
        )
        rows = list(csv.reader(io.StringIO(csv_out)))
        assert len(rows) - 1 == len(json.loads(json_out)["rows"])


class TestWitness:
    def test_attained_bound_with_witnesses(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["witness", "--input", files["system"], "--r", "1", "--d", "0", "--ell", "2"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == "1"
        assert payload["attained"] is True
        assert payload["witnesses"][0]["index_set"] == [2, 3]
        assert payload["witnesses"][0]["nonnegative"] is True

    def test_too_many_orders_is_not_applicable(self, capsys, files):
        code, _, err = run(
            capsys,
            ["witness", "--input", files["system"], "--r", "1", "--d", "0", "--ell", "5"],
        )
        assert code == EXIT_NOT_APPLICABLE
        assert "not applicable" in err

    def test_float_witness_allows_the_fixed_slack(self, capsys, tmp_path):
        # The float solve at j = (2, 6) gives z_1 of about -3.5e-18, which
        # counts as nonnegative within numerics.DEFAULT_TOLERANCE.
        rng = random.Random(0)
        system = floatize(random_system(rng, rng.randint(3, 6)))
        assert system.n == 6
        path = tmp_path / "float-d2.json"
        path.write_text(json.dumps(moment_set(system, 2, 2).to_payload()))
        argv = ["witness", "--moments", str(path), "--r", "2", "--d", "2", "--ell", "2"]
        code, out, _ = run(capsys, argv + ["--side", "lower"])
        assert code == EXIT_OK
        witness = next(w for w in json.loads(out)["witnesses"] if w["j"] == [2, 6])
        assert -1e-9 < float(witness["z"][0]) < 0
        assert witness["nonnegative"] is True


class TestConditional:
    def test_aggregate_and_margin(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "conditional",
                "--input", files["system"],
                "--partition", files["partition"],
                "--r", "2", "--d", "0", "--ell", "2",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == "3/4"
        assert payload["margin"] == "0"
        assert len(payload["blocks"]) == 2
        assert payload["unconditional"]["value"] == "3/4"

    def test_csv_lists_blocks_then_summary_rows(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "conditional",
                "--input", files["system"],
                "--partition", files["partition"],
                "--r", "2", "--d", "0", "--ell", "2",
                "--format", "csv",
            ],
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kind", "block", "weight", "value", "clamped", "formula"]
        kinds = [row[0] for row in rows[1:]]
        assert kinds == ["block", "block", "aggregate", "unconditional"]


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--trials", "4", "--n-max", "4", "--seed", "5"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["suites"]) == 8
        assert all(suite["passed"] for suite in payload["suites"])

    def test_output_is_byte_identical_given_the_seed(self, capsys):
        _, first, _ = run(capsys, ["verify", "--trials", "4", "--n-max", "4", "--seed", "5"])
        _, second, _ = run(capsys, ["verify", "--trials", "4", "--n-max", "4", "--seed", "5"])
        assert first == second

    def test_stdout_is_pinned(self, capsys):
        """The seed-42 report, byte for byte: every suite's trial and check
        counts and verdicts (timings go to stderr)."""
        code, out, _ = run(
            capsys, ["verify", "--trials", "50", "--n-max", "6", "--seed", "42"]
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2befb2f61b2f26268a9f717210265e8aaf35aae0d194b0392850013ea621c92"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "-3", "--n-max", "4"], "trials must be at least 1, got -3"),
            (["--trials", "0"], "trials must be at least 1, got 0"),
            (["--trials", "1", "--n-max", "1"], "n_max must be in 2..20, got 1"),
            (["--trials", "1", "--n-max", "21"], "n_max must be in 2..20, got 21"),
        ],
    )
    def test_a_run_it_cannot_make_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, ["verify", *argv])
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_failure_exits_4_with_reproducers(self, capsys, skewed_ub2_row):
        code, out, err = run(
            capsys, ["verify", "--trials", "30", "--n-max", "6", "--seed", "7"]
        )
        assert code == EXIT_VERIFY
        assert json.loads(out)["passed"] is False
        assert "reproducer:" in err

    def test_a_check_that_raises_is_a_failure_with_a_reproducer(
        self, capsys, inflated_exact_witness
    ):
        code, out, err = run(
            capsys, ["verify", "--trials", "20", "--n-max", "6", "--seed", "7"]
        )
        assert code == EXIT_VERIFY
        suites = {suite["name"]: suite for suite in json.loads(out)["suites"]}
        assert len(suites) == 8
        first = suites["witness-closure"]["failures"][0]
        assert first.startswith("suite=witness-closure trial=")
        assert " error=DegenerateMeasureError message=" in first
        assert f"reproducer: {first}" in err


def _csv_rows(payload, command):
    """Per CSV line, the JSON object whose fields its columns name."""
    if command == "exact":
        p = [{"quantity": "p", "index": i, "value": v} for i, v in enumerate(payload["p"])]
        at_least = enumerate(payload["at_least"], 1)
        return p + [{"quantity": "P", "index": r, "value": v} for r, v in at_least]
    if command == "bound":
        extra = {"exact": payload.get("exact", ""), "gap": payload.get("gap", "")}
        return [{**payload["certificate"], **extra}]
    if command == "sweep":
        return payload["rows"]
    if command == "witness":
        return payload["witnesses"]
    if command == "conditional":
        blocks = [{"kind": "block", **b, **b["certificate"]} for b in payload["blocks"]]
        summary = [("aggregate", payload), ("unconditional", payload["unconditional"])]
        return blocks + [{"kind": k, "block": "", "weight": 1, **c} for k, c in summary]
    assert command == "verify"
    return [
        {**suite, "suite": suite["name"], "failures": len(suite["failures"])}
        for suite in payload["suites"]
    ]


def _as_text(value):
    return " ".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--input", "system"],
        ["exact", "--input", "float_system"],
        ["bound", "--input", "system", "--r", "2", "--d", "1", "--ell", "3"],
        ["bound", "--input", "float_system", "--r", "1", "--ell", "2", "--side", "lower"],
        ["bound", "--moments", "moments", "--r", "2", "--d", "1", "--ell", "3"],
        ["bound", "--moments", "float_moments", "--r", "1", "--d", "1", "--ell", "2"],
        ["sweep", "--input", "system"],
        ["sweep", "--input", "float_system"],
        ["witness", "--input", "system", "--r", "2", "--d", "0", "--ell", "3"],
        ["witness", "--moments", "float_moments", "--r", "2", "--d", "1", "--ell", "2"],
        ["conditional", "--input", "system", "--partition", "partition", "--r", "2", "--ell", "2"],
        ["conditional", "--input", "float_system", "--partition", "partition", "--r", "1"],
        ["verify", "--trials", "4", "--n-max", "4", "--seed", "5"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_csv_is_the_json_projection(capsys, files, argv):
    """Every CSV cell is, as text, the JSON field its column names: lists
    joined by spaces, and the row's JSON object per command in ``_csv_rows``."""
    argv = [files.get(arg, arg) for arg in argv]
    json_code, json_out, _ = run(capsys, argv)
    csv_code, csv_out, _ = run(capsys, argv + ["--format", "csv"])
    assert json_code == csv_code == EXIT_OK
    header, *lines = csv.reader(io.StringIO(csv_out))
    objects = _csv_rows(json.loads(json_out), argv[0])
    assert len(lines) == len(objects) > 0
    for line, obj in zip(lines, objects):
        assert line == [_as_text(obj[column]) for column in header]


def test_each_subcommand_has_exactly_its_options():
    """Every option string of every subcommand, so no knob comes or goes unnoticed."""
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    common = ["--format", "--exact-arithmetic"]
    request = ["--r", "--d", "--ell", "--target", "--side", *common]
    options = {
        name: [option for action in command._actions for option in action.option_strings]
        for name, command in commands.choices.items()
    }
    assert options == {
        "exact": ["-h", "--help", "--input", *common],
        "bound": ["-h", "--help", "--input", "--moments", *request],
        "sweep": ["-h", "--help", "--input", *common],
        "witness": ["-h", "--help", "--input", "--moments", *request],
        "conditional": ["-h", "--help", "--input", "--partition", *request],
        "verify": ["-h", "--help", "--trials", "--n-max", "--seed", "--format"],
    }
    assert not any(command.allow_abbrev for command in commands.choices.values())


class TestExitCodes:
    def test_missing_file(self, capsys, files):
        code, _, err = run(capsys, ["exact", "--input", files["system"] + ".nope"])
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_invalid_json(self, capsys, files):
        code, _, err = run(capsys, ["exact", "--input", files["broken"]])
        assert code == EXIT_INPUT
        assert "invalid JSON" in err

    def test_not_applicable_request(self, capsys, files):
        code, _, err = run(
            capsys,
            [
                "bound",
                "--input", files["system"],
                "--r", "2", "--d", "0", "--ell", "2",
                "--side", "lower",
                "--target", "exactly",
            ],
        )
        assert code == EXIT_NOT_APPLICABLE
        assert "not applicable" in err

    def test_too_many_orders_is_not_applicable(self, capsys, files):
        code, _, err = run(
            capsys,
            ["bound", "--input", files["system"], "--r", "1", "--d", "0", "--ell", "5"],
        )
        assert code == EXIT_NOT_APPLICABLE
        assert "not applicable" in err

    def test_bad_request_values(self, capsys, files):
        code, _, err = run(
            capsys,
            ["bound", "--input", files["system"], "--r", "9", "--d", "0", "--ell", "2"],
        )
        assert code == EXIT_INPUT
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--input", "system"],
            ["bound", "--input", "system", "--r", "1"],
            ["sweep", "--input", "system"],
            ["witness", "--input", "system", "--r", "1"],
            ["conditional", "--input", "system", "--partition", "partition", "--r", "1"],
            ["verify", "--trials", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tolerance_is_not_an_option(self, files, argv):
        # Float comparisons use one fixed slack, numerics.DEFAULT_TOLERANCE.
        with pytest.raises(SystemExit) as excinfo:
            main([files.get(word, word) for word in argv] + ["--tolerance", "1e-9"])
        assert excinfo.value.code == 2

    def test_verify_takes_no_exact_arithmetic_flag(self):
        # The suites build their own systems, so there is no input to convert.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--trials", "1", "--exact-arithmetic"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--input", "system", "--r", "1", "--d", "1", "--ell", "2", "--side", "lower"],
            ["bound", "--moments", "moments", "--r", "1", "--d", "1", "--ell", "2"],
            ["conditional", "--input", "system", "--partition", "partition", "--r", "1"],
        ],
        ids=["bound-input", "bound-moments", "conditional"],
    )
    def test_window_is_not_an_option(self, capsys, files, argv):
        # Windows are picked per index tuple; only a library request pins one.
        # Nor is --m read as a prefix of --moments.
        with pytest.raises(SystemExit) as excinfo:
            main([files.get(word, word) for word in argv] + ["--m", "1"])
        assert excinfo.value.code == 2
        assert "error: unrecognized arguments: --m 1" in capsys.readouterr().err

    def test_input_and_moments_are_mutually_exclusive(self, files):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bound",
                    "--input", files["system"],
                    "--moments", files["moments"],
                    "--r", "1",
                ]
            )
        assert excinfo.value.code == 2

    def test_moment_file_d_mismatch(self, capsys, files):
        code, _, err = run(
            capsys,
            ["witness", "--moments", files["moments"], "--r", "2", "--d", "0", "--ell", "2"],
        )
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_moments_no_distribution_has_are_rejected(self, capsys, tmp_path):
        # s_2 = 1/10 puts the mean count at 1/10, yet s_3 = 9/10 would need
        # E[count (count - 1) / 2] = 9/10: no distribution on 0..3 has both.
        path = tmp_path / "infeasible.json"
        payload = {"n": 3, "d": 0, "ell": 3, "s": [{"j": [], "values": ["1", "1/10", "9/10"]}]}
        path.write_text(json.dumps(payload))
        for side in ("upper", "lower"):
            code, out, err = run(
                capsys, ["bound", "--moments", str(path), "--r", "2", "--side", side]
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert "no distribution has the moments" in err

    def test_nan_weight_and_moment_are_input_errors(self, capsys, tmp_path):
        system, moments = tmp_path / "system.json", tmp_path / "moments.json"
        system.write_text('{"n": 1, "weights": {"0": NaN, "1": 1}}')
        moments.write_text('{"n": 3, "d": 0, "ell": 2, "s": [{"j": [], "values": [1, NaN]}]}')
        for argv, message in (
            (["exact", "--input", str(system)], "weight nan at atom 0 is not finite"),
            (["bound", "--moments", str(moments), "--r", "1", "--ell", "2"], "moment nan is not finite"),
        ):
            code, out, err = run(capsys, argv)
            assert code == EXIT_INPUT
            assert out == ""
            assert message in err

    @pytest.mark.parametrize(
        "weights, normalize, message",
        [
            ({"1": "1e400", "2": 0.5}, False, "weight at atom 1 is too large for a float"),
            ({"1": "1e400", "2": 0.5}, True, "weight at atom 1 is too large for a float"),
            ({"1": "1e308", "2": "1e308", "3": 0.5}, True, "total mass overflows a float"),
        ],
    )
    def test_exact_weights_too_large_for_a_float_system(
        self, capsys, tmp_path, weights, normalize, message
    ):
        # A float among the weights makes the system float, and converting
        # the exact weight, or the exact sum, ended in an OverflowError.
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n": 2, "weights": weights, "normalize": normalize}))
        code, out, err = run(capsys, ["bound", "--input", str(path), "--r", "1", "--ell", "2"])
        assert (code, out) == (EXIT_INPUT, "")
        assert message in err

    @pytest.mark.parametrize(
        "d, ell, records, place",
        [
            (0, 3, [{"j": [], "values": ["1", "1e400", 0.5]}], 0),
            # The exact record's s_4 passes the 3-order facets, and the float
            # records made the certificate's sum convert it.
            (
                1,
                4,
                [{"j": [k], "values": [0.5, 0.25, 0.125, 0.0625]} for k in (2, 3, 4)]
                + [{"j": [1], "values": ["1/2", "1/4", "1/8", "1e400"]}],
                3,
            ),
        ],
    )
    def test_moment_too_large_for_a_float_file(self, capsys, tmp_path, d, ell, records, place):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"n": 4 if d else 3, "d": d, "ell": ell, "s": records}))
        argv = ["bound", "--moments", str(path), "--d", str(d), "--r", "2", "--ell", str(ell)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"moment record s[{place}] holds a value too large for a float" in err

    def test_exact_weight_that_is_zero_as_a_float_is_left_out(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n": 2, "weights": {"1": "1e-400", "2": 1.0}}))
        system = EventSystem.from_payload(json.loads(path.read_text()))
        assert dict(system.weights) == {2: 1.0}
        code, out, err = run(capsys, ["exact", "--input", str(path)])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["p"] == [0.0, 1.0, 0.0]

    def test_moment_values_must_be_a_list(self, capsys, tmp_path):
        # A string was read character by character: "10" as the moments (1, 0).
        path = tmp_path / "moments.json"
        records = [{"j": [k], "values": "10"} for k in (1, 2, 3)]
        path.write_text(json.dumps({"n": 3, "d": 1, "ell": 2, "s": records}))
        code, out, err = run(
            capsys, ["bound", "--moments", str(path), "--r", "1", "--d", "1", "--ell", "2"]
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "\"values\" must be a list of numbers, got '10'" in err

    def test_normalize_must_be_a_boolean(self, capsys, tmp_path):
        # The string "false" is truthy, and these weights sum to 2.
        path = tmp_path / "system.json"
        for flag in ("false", "true", 0):
            payload = {"n": 1, "weights": {"0": 1, "1": 1}, "normalize": flag}
            path.write_text(json.dumps(payload))
            code, out, err = run(capsys, ["exact", "--input", str(path)])
            assert code == EXIT_INPUT
            assert out == ""
            assert f"\"normalize\" must be true or false, got {flag!r}" in err

    def test_boolean_atom_masks_are_rejected(self, capsys, tmp_path):
        # true was read as atom 1, as JSON booleans are Python ints.
        system, partition = tmp_path / "system.json", tmp_path / "partition.json"
        system.write_text(json.dumps(fair(2).to_payload()))
        for atom in ("true", "false"):
            other = 1 if atom == "false" else 0
            partition.write_text(f'{{"blocks": [[{other}, {atom}], [2, 3]]}}')
            code, out, err = run(
                capsys,
                ["conditional", "--input", str(system), "--partition", str(partition),
                 "--r", "1", "--ell", "2"],
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert f"atom mask {atom.title()} out of range for n=2" in err

    def test_two_spellings_of_one_mask_are_rejected(self, capsys, tmp_path):
        # "1" and "01" both name atom 1; one of the two weights was dropped.
        path = tmp_path / "system.json"
        payload = {"n": 1, "weights": {"0": 1, "1": 1, "01": 3}, "normalize": True}
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["exact", "--input", str(path)])
        assert code == EXIT_INPUT
        assert out == ""
        assert "keys '1' and '01' both name atom 1" in err

    def test_zero_moment_orders_are_rejected(self, capsys, tmp_path):
        # ell = 0 with no values ended in an IndexError traceback.
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"n": 3, "d": 0, "ell": 0, "s": [{"j": [], "values": []}]}))
        code, out, err = run(capsys, ["bound", "--moments", str(path), "--r", "1", "--ell", "2"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "need ell >= 1, got ell=0" in err

    def test_missing_tuples_fail_fast_at_large_n(self, capsys, tmp_path):
        # C(10^6, 3) index tuples are never listed: one record is too few.
        path = tmp_path / "moments.json"
        record = {"j": [1, 2, 3], "values": ["1/2", "1/4"]}
        path.write_text(json.dumps({"n": 10**6, "d": 3, "ell": 2, "s": [record]}))
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["bound", "--moments", str(path), "--r", "4", "--d", "3", "--ell", "2"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INPUT
        assert out == ""
        assert "moment set must contain every index tuple of order d exactly once" in err

    def test_exact_arithmetic_checks_the_exact_moments(self, capsys, tmp_path):
        # s_2 exceeds s_1 = 1 by 1e-12, within the float check's tolerance;
        # as exact rationals no distribution on 0..3 has these moments.
        float_path, text_path = tmp_path / "float.json", tmp_path / "text.json"
        values = [1.0, 1.000000000001, 0.0]
        for path, record in ((float_path, values), (text_path, [repr(x) for x in values])):
            payload = {"n": 3, "d": 0, "ell": 3, "s": [{"j": [], "values": record}]}
            path.write_text(json.dumps(payload))
        for path, flags in ((float_path, ["--exact-arithmetic"]), (text_path, [])):
            code, out, err = run(
                capsys, ["bound", "--moments", str(path), "--r", "2", "--ell", "3", *flags]
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert "no distribution has the moments" in err

    @pytest.mark.parametrize(
        "source",
        [
            ["bound", "--input", "system"],
            ["bound", "--moments", "moments"],
            ["witness", "--input", "system"],
            ["conditional", "--input", "system", "--partition", "partition"],
        ],
        ids=["bound-input", "bound-moments", "witness-input", "conditional"],
    )
    @pytest.mark.parametrize(
        "request_args, expected",
        [
            # n = 3; the moment file is at d = 1, so d = 1 there and d = 0 elsewhere.
            ({"--ell": "5", "--r": "1"}, EXIT_NOT_APPLICABLE),
            ({"--d": "4", "--r": "4", "--ell": "2"}, EXIT_INPUT),
            ({"--r": "4", "--ell": "2"}, EXIT_INPUT),
        ],
        ids=["ell-above-positions", "d-above-n", "r-above-n"],
    )
    def test_request_exit_codes(self, capsys, files, source, request_args, expected):
        argv = [files.get(word, word) for word in source]
        request = {"--d": "1" if "--moments" in source else "0", **request_args}
        for flag, value in request.items():
            argv += [flag, value]
        code, out, err = run(capsys, argv)
        assert code == expected
        assert out == ""
        assert ("not applicable:" if expected == EXIT_NOT_APPLICABLE else "error:") in err

    def test_enumeration_cap_fails_fast(self, capsys, tmp_path):
        # Binomial(60, 1/2) moments at d = 1, ell = 11: the root-count bound
        # leaves 3,162,510 candidate index sets at r = 30 on the upper side,
        # above the cap of 10^6.
        path = _binomial_60_moments(tmp_path, 11, d=1)
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["bound", "--moments", str(path), "--r", "30", "--d", "1", "--ell", "11"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INPUT
        assert out == ""
        assert "3162510 candidate index sets exceed the enumeration cap of 1000000" in err

    def test_wide_moment_request_is_answered(self, capsys, tmp_path):
        # n = 60, ell = 4 has C(61, 4) = 521,855 index sets, whose
        # exhaustive table took tens of seconds to build per side.
        _brackets_the_binomial_tail(capsys, tmp_path, 4)

    def test_six_orders_at_d0_are_answered_under_the_cap(self, capsys, tmp_path):
        # At ell = 6 the candidates of b's value counts, 2,413,456, were
        # over the cap; the difference count leaves the feasible sets only.
        _brackets_the_binomial_tail(capsys, tmp_path, 6)

    def test_six_orders_at_d1_are_answered_under_the_cap(self, capsys, tmp_path):
        # At d = 1, ell = 6 the candidates of b's and b - 1's value counts,
        # 3,074,736 (upper) and 9,974,460 (lower), were over the cap; the
        # difference count with the first level pinned leaves 2,972 and 2,672.
        _brackets_the_binomial_tail(capsys, tmp_path, 6, d=1)


def _brackets_the_binomial_tail(capsys, tmp_path, ell, d=0):
    """Both sides of the r = 30 bound on Binomial(60, 1/2) moments at d = 0
    or d = 1 exit 0 and bracket the tail P(at least 30)."""
    path = _binomial_60_moments(tmp_path, ell, d)
    tail = Fraction(sum(comb(60, i) for i in range(30, 61)), 2**60)
    values = {}
    for side in ("upper", "lower"):
        code, out, _ = run(
            capsys,
            [
                "bound", "--moments", str(path), "--r", "30", "--d", str(d),
                "--ell", str(ell), "--side", side,
            ],
        )
        assert code == EXIT_OK
        values[side] = Fraction(json.loads(out)["certificate"]["value"])
    assert values["lower"] <= tail <= values["upper"]


def test_cli_outputs_script_runs():
    """``scripts/cli_outputs.py`` digests exact, sweep, bound and conditional calls."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [
            sys.executable, str(root / "scripts" / "cli_outputs.py"),
            "--seeds", "1", "--n-max", "3", "--stride", "29",
        ],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, check=True, timeout=120,
    )
    *calls, summary = result.stdout.splitlines()
    commands = {json.loads(line)[0].split()[0] for line in calls}
    assert commands == {"exact", "sweep", "bound", "conditional"}
    assert "--moments" in " ".join(json.loads(line)[0] for line in calls)
    assert summary.startswith(f"{len(calls)} calls, stdout and exit codes sha256 ")
    assert ", with stderr " in summary
