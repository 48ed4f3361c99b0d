"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import csv
import io
import json
import time
from fractions import Fraction
from math import comb

import pytest

from eventbounds.certificates import BoundCertificate
from eventbounds.cli import (
    EXIT_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from eventbounds.conditional import PartitionField
from eventbounds.core import EventSystem
from eventbounds.moments import moment_set
from eventbounds.verification import floatize


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
    paths["partition"].write_text(json.dumps(PartitionField.from_event(3, 3).to_payload()))
    paths["broken"].write_text("{not json")
    return {name: str(path) for name, path in paths.items()}


def _binomial_60_moments(tmp_path, ell):
    """A moment file of Binomial(60, 1/2) at d = 0: s_k = C(60, k-1) / 2^(k-1)."""
    values = [str(Fraction(comb(60, k - 1), 2 ** (k - 1))) for k in range(1, ell + 1)]
    path = tmp_path / f"binomial60-ell{ell}.json"
    path.write_text(json.dumps({"n": 60, "d": 0, "ell": ell, "s": [{"j": [], "values": values}]}))
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

    def test_window_flag_reaches_the_windowed_family(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "bound",
                "--input", files["system"],
                "--r", "1", "--d", "1", "--ell", "2",
                "--side", "lower",
                "--m", "1",
            ],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["certificate"]["formula"] == "l2"
        assert payload["certificate"]["value"] == "3/4"

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

    def test_failure_exits_4_with_reproducers(self, capsys, skewed_ub2_row):
        code, out, err = run(
            capsys, ["verify", "--trials", "30", "--n-max", "6", "--seed", "7"]
        )
        assert code == EXIT_VERIFY
        assert json.loads(out)["passed"] is False
        assert "reproducer:" in err


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

    def test_window_on_fixed_two_moment_families(self, capsys, files):
        code, _, err = run(
            capsys,
            [
                "bound",
                "--input", files["system"],
                "--r", "2", "--d", "0", "--ell", "2",
                "--side", "upper",
                "--m", "99",
            ],
        )
        assert code == EXIT_INPUT
        assert "windowed families" in err

    def test_window_on_the_fixed_exactly_target_of_l2(self, capsys, files):
        code, _, err = run(
            capsys,
            [
                "bound",
                "--input", files["system"],
                "--r", "1", "--d", "1", "--ell", "2",
                "--side", "lower",
                "--target", "exactly",
                "--m", "2",
            ],
        )
        assert code == EXIT_INPUT
        assert "windowed families" in err

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

    def test_enumeration_cap_fails_fast(self, capsys, tmp_path):
        # Binomial(60, 1/2) moments at ell = 6: the root-count bound leaves
        # 2,413,456 candidate index sets at r = 30 on the upper side, above
        # the cap of 10^6.
        path = _binomial_60_moments(tmp_path, 6)
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["bound", "--moments", str(path), "--r", "30", "--ell", "6"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INPUT
        assert out == ""
        assert "2413456 candidate index sets exceed the enumeration cap of 1000000" in err

    def test_wide_moment_request_is_answered(self, capsys, tmp_path):
        # n = 60, ell = 4 has C(61, 4) = 521,855 index sets, whose
        # exhaustive table took tens of seconds to build per side.
        path = _binomial_60_moments(tmp_path, 4)
        tail = Fraction(sum(comb(60, i) for i in range(30, 61)), 2**60)
        values = {}
        for side in ("upper", "lower"):
            code, out, _ = run(
                capsys,
                ["bound", "--moments", str(path), "--r", "30", "--ell", "4", "--side", side],
            )
            assert code == EXIT_OK
            values[side] = Fraction(json.loads(out)["certificate"]["value"])
        assert values["lower"] <= tail <= values["upper"]
