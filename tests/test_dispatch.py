"""Request routing: named formulas, best-of dispatch, search and exact modes."""

import dataclasses
import json
from fractions import Fraction

import pytest

from eventbounds import dispatch
from eventbounds.certificates import SIDES, BoundRequest
from eventbounds.cli import EXIT_OK, main
from eventbounds.core import EventSystem, exact_occurrence
from eventbounds.dispatch import FAMILY_TABLE, FORMULAS, bound_for_system, evaluate_request
from eventbounds.errors import NotApplicableError
from eventbounds.moments import MomentSet, moment_set
from eventbounds.verification import _family_bound
from test_golden import golden_requests


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


@pytest.fixture(scope="module")
def fair3():
    return fair(3)


@pytest.fixture(scope="module")
def d0_l4(fair3):
    return moment_set(fair3, 0, 4)


@pytest.fixture(scope="module")
def d1_l3(fair3):
    return moment_set(fair3, 1, 3)


class TestDefaultRouting:
    def test_ell_two_picks_the_best_family(self, d0_l4):
        cert = evaluate_request(d0_l4, BoundRequest(r=1, d=0, ell=2, side="upper"))
        assert cert.formula_id == "u2"
        assert cert.value == 1

    def test_ell_three_upper(self, d1_l3):
        cert = evaluate_request(d1_l3, BoundRequest(r=2, d=1, ell=3, side="upper"))
        assert cert.formula_id == "ub2"
        assert cert.value == Fraction(1, 2)

    def test_ell_three_lower(self, d1_l3):
        cert = evaluate_request(d1_l3, BoundRequest(r=2, d=1, ell=3, side="lower"))
        assert cert.value == Fraction(1, 2)

    def test_a_pinned_window_reaches_the_windowed_family(self, fair3):
        moments = moment_set(fair3, 1, 2)
        cert = evaluate_request(moments, BoundRequest(r=1, d=1, ell=2, side="lower"))
        assert (cert.formula_id, cert.value, cert.m) == ("l2", Fraction(3, 4), 1)
        assert cert == _family_bound(FAMILY_TABLE["l2"], moments, 1, "at-least", 1)

    def test_higher_orders_fall_back_to_the_search(self, d0_l4, fair3):
        cert = evaluate_request(d0_l4, BoundRequest(r=1, d=0, ell=4, side="upper"))
        assert cert.formula_id == "search"
        assert cert.value == exact_occurrence(fair3).at_least(1)

    def test_the_search_builds_no_witness(self, d0_l4, fair3, monkeypatch):
        # Sharpness witnesses are diagnostics: no bound value reads one.
        def refuse(*args):
            raise AssertionError("the bound path built a sharpness witness")

        monkeypatch.setattr("eventbounds.engine.sharpness_witness", refuse)
        for formula in ("search", None):
            cert = evaluate_request(d0_l4, BoundRequest(r=1, d=0, ell=4, formula=formula))
            assert cert.formula_id == "search"
            assert cert.value == exact_occurrence(fair3).at_least(1)

    def test_restriction_to_the_requested_order(self, d0_l4):
        # the four-order set serves a two-order request through restriction
        cert = evaluate_request(d0_l4, BoundRequest(r=1, d=0, ell=2, side="lower"))
        assert cert.ell == 2
        assert cert.value == Fraction(1, 2)


class TestNamedFormulas:
    def test_u1(self, d0_l4):
        cert = evaluate_request(
            d0_l4, BoundRequest(r=1, d=0, ell=2, side="upper", formula="u1")
        )
        assert cert.formula_id == "u1"
        assert cert.value == Fraction(3, 2)
        assert cert.clamped == 1

    def test_l2_window_pinned(self, fair3):
        cert = _family_bound(FAMILY_TABLE["l2"], moment_set(fair3, 1, 2), 1, "at-least", 1)
        assert cert.formula_id == "l2"
        assert cert.value == Fraction(3, 4)
        assert cert.m == 1

    def test_exactly_target_selects_the_second_member(self, d1_l3):
        cert = evaluate_request(
            d1_l3,
            BoundRequest(r=2, d=1, ell=3, side="upper", target="exactly", formula="ub2"),
        )
        assert cert.value == Fraction(3, 8)

    def test_search_formula(self, d0_l4):
        cert = evaluate_request(
            d0_l4, BoundRequest(r=1, d=0, ell=2, side="upper", formula="search")
        )
        assert cert.formula_id == "search"
        assert cert.value == 1

    def test_jordan_formula(self, d0_l4, fair3):
        cert = evaluate_request(
            d0_l4, BoundRequest(r=1, d=0, ell=4, side="upper", formula="jordan")
        )
        assert cert.formula_id == "jordan"
        assert cert.value == exact_occurrence(fair3).at_least(1)

    def test_jordan_requires_the_full_order(self, d0_l4):
        with pytest.raises(NotApplicableError):
            evaluate_request(
                d0_l4, BoundRequest(r=1, d=0, ell=3, side="upper", formula="jordan")
            )

    def test_formula_list_is_published(self):
        assert "u1" in FORMULAS and "lb3" in FORMULAS
        assert FORMULAS[-2:] == ("search", "jordan")


class TestRoutingErrors:
    def test_unknown_formula(self, d0_l4):
        with pytest.raises(ValueError, match="unknown formula"):
            evaluate_request(
                d0_l4, BoundRequest(r=1, d=0, ell=2, side="upper", formula="zz")
            )

    def test_side_mismatch(self, d0_l4):
        with pytest.raises(ValueError, match="upper bounds"):
            evaluate_request(
                d0_l4, BoundRequest(r=1, d=0, ell=2, side="lower", formula="u1")
            )

    def test_ell_mismatch(self, d0_l4):
        with pytest.raises(ValueError, match="uses ell=2"):
            evaluate_request(
                d0_l4, BoundRequest(r=1, d=0, ell=3, side="upper", formula="u1")
            )

    def test_applicability_is_checked_before_the_window(self, d1_l3):
        for formula in ("lb2", "lb3"):
            with pytest.raises(NotApplicableError):
                evaluate_request(
                    d1_l3,
                    BoundRequest(r=3, d=1, ell=3, side="lower", target="exactly", formula=formula),
                )

    def test_l2_needs_r_equal_d(self, d0_l4):
        with pytest.raises(NotApplicableError):
            evaluate_request(
                d0_l4, BoundRequest(r=1, d=0, ell=2, side="lower", formula="l2")
            )

    def test_lb1_exactly_needs_the_top_level(self, d0_l4):
        with pytest.raises(NotApplicableError):
            evaluate_request(
                d0_l4,
                BoundRequest(r=2, d=0, ell=3, side="lower", target="exactly", formula="lb1"),
            )

    def test_lb1_exactly_at_the_top_level(self, d0_l4, fair3):
        cert = evaluate_request(
            d0_l4,
            BoundRequest(r=3, d=0, ell=3, side="lower", target="exactly", formula="lb1"),
        )
        assert cert.formula_id == "lb1"
        assert cert.value <= exact_occurrence(fair3).p[3]

    def test_moment_set_d_must_match(self, d1_l3):
        with pytest.raises(ValueError, match="d="):
            evaluate_request(d1_l3, BoundRequest(r=2, d=0, ell=3, side="upper"))

    def test_request_order_cannot_exceed_the_set(self, d1_l3):
        with pytest.raises(ValueError, match="moment orders"):
            evaluate_request(d1_l3, BoundRequest(r=2, d=1, ell=4, side="upper"))

    def test_r_out_of_range(self, d0_l4):
        with pytest.raises(ValueError, match="0 <= d <= r <= n"):
            evaluate_request(d0_l4, BoundRequest(r=5, d=0, ell=2, side="upper"))


class TestRequestValidation:
    def test_bad_side(self):
        with pytest.raises(ValueError):
            BoundRequest(r=1, d=0, ell=2, side="sideways")

    def test_bad_target(self):
        with pytest.raises(ValueError):
            BoundRequest(r=1, d=0, ell=2, target="atmost")

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            BoundRequest(r=-1, d=0, ell=2)
        with pytest.raises(ValueError):
            BoundRequest(r=1, d=0, ell=1)

    def test_a_request_has_no_window(self):
        # Each windowed family picks its sharpest window per index tuple.
        fields = [field.name for field in dataclasses.fields(BoundRequest)]
        assert fields == ["r", "d", "ell", "side", "target", "formula"]
        with pytest.raises(TypeError):
            BoundRequest(r=1, d=1, ell=2, m=1)


class TestBoundForSystem:
    def test_matches_the_two_step_route(self, fair3):
        request = BoundRequest(r=2, d=1, ell=3, side="upper")
        direct = bound_for_system(fair3, request)
        staged = evaluate_request(moment_set(fair3, 1, 3), request)
        assert direct.value == staged.value
        assert direct.formula_id == staged.formula_id

    def test_sandwiches_the_oracle(self, fair3):
        truth = exact_occurrence(fair3).at_least(2)
        upper = bound_for_system(fair3, BoundRequest(r=2, d=0, ell=3, side="upper"))
        lower = bound_for_system(fair3, BoundRequest(r=2, d=0, ell=3, side="lower"))
        assert lower.clamped <= truth <= upper.clamped


def test_no_restricted_copy_on_the_bound_path(monkeypatch, capsys, tmp_path, fair3, d1_l3):
    """A set with more orders than the request is read as it is: neither
    sweep nor an ell-2 request on a 3-order set truncates a copy."""

    def refuse(self, ell):
        raise AssertionError(f"restricted({ell}) called on the bound path")

    monkeypatch.setattr(MomentSet, "restricted", refuse)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(fair3.to_payload()))
    assert main(["sweep", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"]
    for side in SIDES:
        assert evaluate_request(d1_l3, BoundRequest(r=2, d=1, ell=2, side=side)).ell == 2


def _payload_or_error(moments, request) -> str:
    """The certificate's canonical payload JSON, or the error's class and message."""
    try:
        certificate = evaluate_request(moments, request)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(certificate.to_payload(), sort_keys=True, separators=(",", ":"))


class TestPlanCache:
    """A closed-form request's plan is resolved once per (n, request) and
    process; the cache changes no result, keeps no failure, and the search
    and Jordan routes never touch it."""

    def test_cold_warm_and_reversed_passes_agree(self, fresh_plans):
        requests = [(moments, request) for _, moments, request in golden_requests()]
        cold = [_payload_or_error(*pair) for pair in requests]
        plans = dispatch._plan.cache_info().currsize
        assert plans > 0
        warm = [_payload_or_error(*pair) for pair in requests]
        reversed_ = [_payload_or_error(*pair) for pair in reversed(requests)][::-1]
        assert warm == cold
        assert reversed_ == cold
        assert dispatch._plan.cache_info().currsize == plans

    @pytest.mark.parametrize("request_, error", [
        (BoundRequest(r=1, d=0, ell=2, side="lower", target="exactly", formula="l1"),
         NotApplicableError),
        (BoundRequest(r=2, d=1, ell=3, side="upper", formula="lb2"), ValueError),
    ], ids=["not-applicable", "side-mismatch"])
    def test_a_failing_request_is_not_cached(self, d0_l4, d1_l3, fresh_plans, request_, error):
        moments = d1_l3 if request_.d else d0_l4
        messages = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                evaluate_request(moments, request_)
            messages.append(str(caught.value))
            assert dispatch._plan.cache_info().currsize == 0
        assert messages[0] == messages[1]

    def test_search_and_jordan_leave_the_cache_untouched(self, d0_l4, fresh_plans):
        evaluate_request(d0_l4, BoundRequest(r=1, d=0, ell=2))
        before = dispatch._plan.cache_info()
        for request in (
            BoundRequest(r=1, d=0, ell=3, formula="search"),
            BoundRequest(r=1, d=0, ell=4),
            BoundRequest(r=1, d=0, ell=4, formula="jordan"),
        ):
            evaluate_request(d0_l4, request)
        assert dispatch._plan.cache_info() == before
