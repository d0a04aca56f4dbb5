import math
import pickle
import re
import sys
from dataclasses import fields
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspace import (
    DomainError,
    IllegalSpec,
    NotInvertible,
    ShapeFunction,
    SpecParseError,
    UnsupportedFamily,
    alpha_beta,
    check_assumptions,
    constant_one,
    gamma,
    gamma_inv,
    identity,
    is_concave,
    is_quasiconcave,
    least_concave_majorant,
    parse_shape,
    piecewise,
    psi_gamma,
    qa_phi,
    qa_psi,
    shape_to_json,
)
from qaspace import shapes as shapes_module
from qaspace.shapes import log_gamma, log_gamma_inv

moderate_t = st.floats(1e-6, 1.0, allow_nan=False)


class TestEval:
    def test_qa_phi_formula(self):
        t = 0.25
        assert qa_phi().eval(t) == t * (1.0 - math.log(t))
        assert qa_phi().eval(1.0) == 1.0
        assert qa_phi().eval(0.0) == 0.0

    def test_alpha_beta_formula(self):
        t = 0.25
        phi = alpha_beta(0.5, 1.0)
        assert phi.eval(t) == t**0.5 * (1.0 - math.log(t))
        assert alpha_beta(0.5, 0.0).eval(t) == t**0.5

    def test_alpha_beta_flattens_when_beta_dominates(self):
        # t^a (1-log t)^b has an interior max at log t = 1 - b/a when
        # b >= a; past it the value is held at the max to stay monotone
        phi = alpha_beta(0.5, 1.0)
        peak = math.exp(1.0 - 1.0 / 0.5)
        top = phi.eval(peak)
        assert phi.eval(peak / 3) < top
        assert phi.eval(2 * peak) == top == phi.eval(1.0)

    def test_alpha_beta_does_not_flatten_when_alpha_dominates(self):
        # with b < a the formula increases all the way to the edge
        assert alpha_beta(1.0, 0.1).eval(1.0) == 1.0
        assert alpha_beta(0.3, 0.0).eval(1.0) == 1.0
        assert math.exp(alpha_beta(0.3, 0.0).log_eval(0.0)) == 1.0

    def test_psi_families(self):
        assert qa_psi().eval(1.0) == 1.0
        assert qa_psi().eval(8.0) == 1.0 + math.log(8.0)
        assert psi_gamma(0.5).eval(math.e) == math.sqrt(2.0)
        assert psi_gamma(0.0).eval(7.0) == 1.0
        # below 1 the psi families fall back to t itself
        assert qa_psi().eval(0.5) == 0.5

    def test_identity_and_constant(self):
        assert identity().eval(0.7) == 0.7
        assert constant_one().eval(0.7) == 1.0
        assert constant_one().eval(0.0) == 0.0
        assert constant_one().zero_limit() == 1.0
        assert qa_phi().zero_limit() == 0.0

    def test_phi_domain_is_unit_interval(self):
        with pytest.raises(DomainError):
            qa_phi().eval(1.5)
        with pytest.raises(DomainError):
            qa_phi().eval(-0.1)
        assert qa_psi().eval(40.0) > 1.0

    def test_callable(self):
        assert qa_phi()(0.5) == qa_phi().eval(0.5)


class TestValidation:
    def test_alpha_beta_ranges(self):
        with pytest.raises(IllegalSpec):
            alpha_beta(0.0, 0.5)
        with pytest.raises(IllegalSpec):
            alpha_beta(1.5, 0.5)
        with pytest.raises(IllegalSpec):
            alpha_beta(0.5, -0.1)

    def test_psi_gamma_range(self):
        with pytest.raises(IllegalSpec):
            psi_gamma(1.5)

    def test_unknown_family(self):
        with pytest.raises(IllegalSpec):
            ShapeFunction("cubic")

    def test_bad_domain_kind(self):
        with pytest.raises(IllegalSpec):
            ShapeFunction("qa_phi", domain_kind="theta")


class TestPiecewise:
    def test_interpolation(self):
        phi = piecewise([(0, 0), (0.5, 1.0), (1.0, 1.5)])
        assert phi.eval(0.25) == 0.5
        assert phi.eval(0.75) == 1.25
        assert phi.eval(1.0) == 1.5

    def test_requires_concave_start_at_origin(self):
        with pytest.raises(IllegalSpec):
            piecewise([(0.1, 0.0), (1.0, 1.0)])
        with pytest.raises(IllegalSpec):
            piecewise([(0, 0), (0.5, 0.1), (1.0, 1.0)])
        with pytest.raises(IllegalSpec):
            piecewise([(0, 0), (0.5, 1.0), (1.0, 0.5)])

    @pytest.mark.parametrize(
        "points, kind",
        [
            ([(0, 0), (0.5, math.nan), (1, 1)], "phi"),
            ([(0, 0), (0.5, math.inf), (1, math.inf)], "phi"),
            ([(0, 0), (1, 1), (math.inf, 2)], "psi"),
            ([(0, 0), (1, 1), (2, math.nan)], "psi"),
        ],
    )
    def test_rejects_non_finite_samples(self, points, kind):
        with pytest.raises(IllegalSpec, match="must be finite"):
            piecewise(points, kind=kind)
        spec = {"family": "piecewise", "points": [list(p) for p in points], "domain": kind}
        with pytest.raises(SpecParseError, match="must be finite"):
            parse_shape(spec)

    @pytest.mark.parametrize(
        "points, kind",
        [
            ([(0, 0), (0.5, 0), (1, 0)], "phi"),
            ([(0, 0), (1, 0)], "phi"),
            ([(0, 0), (50, 0)], "psi"),
        ],
    )
    def test_rejects_zero_samples_after_the_origin(self, points, kind):
        # concave and non-decreasing from (0, 0): one zero makes the whole shape 0
        with pytest.raises(IllegalSpec, match=r"after \(0, 0\) must be positive"):
            piecewise(points, kind=kind)
        spec = {"family": "piecewise", "points": [list(p) for p in points], "domain": kind}
        with pytest.raises(SpecParseError, match=r"after \(0, 0\) must be positive"):
            parse_shape(spec)

    def test_rejects_samples_beyond_domain(self):
        with pytest.raises(DomainError):
            piecewise([(0, 0), (0.5, 1.0), (1.0, 1.5)]).eval(1.0 + 1e-9)

    # gamma falls from 2 at t = 0.25 to 1 at t = 1, and is 2 on all of (0, 0.25]
    TWO_CHORDS = [(0, 0), (0.25, 0.5), (1, 1)]

    @pytest.mark.parametrize("target", [math.log(2.0) - 1e-9, 0.6, 0.5, 0.46])
    def test_inverse_on_the_segment_past_the_first_sample(self, target):
        # the answers lie in [0.25, 1], on the second chord
        phi = piecewise(self.TWO_CHORDS)
        x = log_gamma_inv(phi, target)
        assert math.log(0.25) < x < -1.0
        # on this segment phi(t) = 1/3 + 2t/3, so gamma(t) = e^target at t = (1/3) / (e^target - 2/3)
        assert x == pytest.approx(math.log((1 / 3) / (math.exp(target) - 2 / 3)), rel=1e-14)
        assert log_gamma(phi, x) == pytest.approx(target, rel=1e-14)

    def test_inverse_at_and_above_the_first_chord(self):
        phi = piecewise(self.TWO_CHORDS)
        top = math.log(0.5 / 0.25)
        assert top == math.log(2.0)
        # gamma is 2 on all of (0, 0.25]: the largest solution is the sample itself
        assert log_gamma_inv(phi, top) == math.log(0.25)
        with pytest.raises(NotInvertible, match="constant below log t"):
            log_gamma_inv(phi, top, log_hi=math.log(0.25))
        with pytest.raises(NotInvertible, match="above 0.6931471805599453, the largest log gamma"):
            log_gamma_inv(phi, math.nextafter(top, math.inf))

    @pytest.mark.parametrize("log_t", [math.log(0.25) - 1e-9, -10.0, -1e300, -math.inf])
    def test_log_forms_below_the_first_sample_follow_the_first_chord(self, log_t):
        # phi(t) = 2t on [0, 0.25], so log gamma is log 2 there, to t = 0
        phi = piecewise(self.TWO_CHORDS)
        assert phi.log_gamma_eval(log_t) == math.log(2.0)
        assert phi.log_eval(log_t) == log_t + math.log(2.0)
        if log_t > -700:  # where e^log_t is still a normal float
            direct = math.log(phi.eval(math.exp(log_t)))
            assert phi.log_eval(log_t) == pytest.approx(direct, rel=1e-14)

    def test_log_forms_of_the_zero_shape_are_refused(self):
        with pytest.raises(UnsupportedFamily):
            piecewise([(0, 0)]).log_eval(-1.0)
        with pytest.raises(UnsupportedFamily):
            piecewise([(0, 0)]).log_gamma_eval(-1.0)


class TestLogEval:
    families = [
        qa_phi(),
        alpha_beta(0.5, 1.0),
        alpha_beta(1.0, 0.1),
        alpha_beta(0.3, 0.0),
        identity(),
        constant_one(),
    ]

    @given(moderate_t)
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_eval(self, t):
        for shape in self.families:
            want = shape.eval(t)
            got = math.exp(shape.log_eval(math.log(t)))
            assert got == pytest.approx(want, rel=1e-12)

    @given(st.floats(1.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_eval_psi(self, t):
        for shape in (qa_psi(), psi_gamma(0.5)):
            got = math.exp(shape.log_eval(math.log(t)))
            assert got == pytest.approx(shape.eval(t), rel=1e-12)

    def test_deep_arguments_stay_finite(self):
        lt = -1e15
        assert qa_phi().log_eval(lt) == lt + math.log(1.0 - lt)
        assert alpha_beta(0.5, 1.0).log_eval(lt) == 0.5 * lt + math.log(1.0 - lt)

    def test_phi_kind_rejects_positive_logs(self):
        with pytest.raises(DomainError):
            qa_phi().log_eval(0.5)


class TestLogGammaEval:
    @given(moderate_t)
    @settings(max_examples=80, deadline=None)
    def test_consistent_with_log_eval(self, t):
        lt = math.log(t)
        for shape in TestLogEval.families:
            if shape.family == "constant_one" or t > 0.99:
                continue
            assert shape.log_gamma_eval(lt) == pytest.approx(
                shape.log_eval(lt) - lt, rel=1e-9, abs=1e-9
            )

    def test_survives_depths_where_subtraction_cancels(self):
        # at log t = -1e15 the two terms of log_eval - log_t agree to
        # every retained bit, so only the direct form keeps the ratio
        lt = -1e15
        assert qa_phi().log_gamma_eval(lt) == math.log(1.0 - lt)
        assert alpha_beta(0.5, 1.0).log_gamma_eval(lt) == -0.5 * lt + math.log(1.0 - lt)
        assert alpha_beta(1.0, 0.1).log_gamma_eval(lt) == 0.1 * math.log(1.0 - lt)
        assert identity().log_gamma_eval(lt) == 0.0
        assert constant_one().log_gamma_eval(lt) == -lt

    def test_psi_kind(self):
        assert qa_psi().log_gamma_eval(-2.0) == 0.0
        lt = 3.0
        assert qa_psi().log_gamma_eval(lt) == math.log1p(lt) - lt

    @pytest.mark.parametrize(
        "shape, log_t, limit",
        [
            (qa_phi(), -math.inf, math.inf),  # 0 * -inf in the (a - 1) log t term
            (alpha_beta(1.0, 0.5), -math.inf, math.inf),
            (alpha_beta(1.0, 0.0), -math.inf, 0.0),
            # b = 0 has no flat branch: inf - inf there
            (ShapeFunction("alpha_beta", alpha=0.5, beta=0.0, domain_kind="psi"), math.inf, -math.inf),
            (ShapeFunction("alpha_beta", alpha=1.0, beta=0.0, domain_kind="psi"), math.inf, 0.0),
        ],
    )
    def test_infinite_arguments_take_their_limits(self, shape, log_t, limit):
        assert shape.log_gamma_eval(log_t) == limit

    @pytest.mark.parametrize(
        "shape, form, log_t",
        [
            (qa_phi(), "log_eval", -math.inf),  # -inf + inf in a log t + b log(1 - log t)
            (alpha_beta(0.5, 0.7), "log_eval", -math.inf),
            (qa_psi(), "log_gamma_eval", math.inf),  # inf - inf in g log1p(x) - x
            (psi_gamma(0.4), "log_gamma_eval", math.inf),
        ],
    )
    def test_infinite_arguments_reach_minus_infinity(self, shape, form, log_t):
        assert getattr(shape, form)(log_t) == -math.inf


class TestGammaInverse:
    def test_gamma_is_ratio(self):
        t = 0.2
        assert gamma(qa_phi(), t) == qa_phi().eval(t) / t

    @given(st.floats(1e-8, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, t):
        y = gamma(qa_phi(), t)
        assert gamma_inv(qa_phi(), y) == pytest.approx(t, rel=1e-9)

    def test_log_domain_roundtrip_deep(self):
        target = 40.0
        lt = log_gamma_inv(qa_phi(), target)
        assert log_gamma(qa_phi(), lt) == pytest.approx(target, rel=1e-11)

    def test_flat_gamma_not_invertible(self):
        with pytest.raises(NotInvertible):
            gamma_inv(identity(), 2.0)


def _bisection_log_gamma_inv(shape, target, log_hi=0.0):
    """The bisection that the closed forms replaced, kept as the reference that
    they must never be less accurate than."""
    log_gamma = shape.log_gamma_eval
    g_hi = log_gamma(log_hi)
    if target < g_hi:
        raise NotInvertible(f"target {target!r} below attainable minimum {g_hi!r}")
    if target == g_hi:
        if log_gamma(log_hi - 1.0) <= g_hi:
            raise NotInvertible("shape(t)/t is not strictly decreasing here")
        return log_hi
    offset = 1.0
    lo = log_hi - offset
    while log_gamma(lo) < target:
        offset *= 2.0
        if offset > 1.0e308:
            raise NotInvertible(f"target {target!r} not reached within float range")
        lo = log_hi - offset
    hi = log_hi
    mid = 0.5 * (lo + hi)
    if not log_gamma(lo) > log_gamma(mid) > g_hi:
        raise NotInvertible("shape(t)/t is not strictly decreasing on the bracket")
    while (hi - lo) > 1e-12 + 4.0 * math.ulp(abs(mid)):
        if log_gamma(mid) >= target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _exact_log_gamma_inv(shape, target):
    """The largest log t with log_gamma_eval(log t) == target, to 60 digits.

    The formulas of log_gamma_eval are evaluated exactly, with the float
    constants the shape holds (a - 1, b, the flat point and log of the top
    value of alpha_beta; the samples of piecewise).  Standard library only.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        T = Decimal(target)
        if shape.family == "constant_one":
            return -T
        if shape.family == "piecewise":
            pts = [(Decimal(t), Decimal(y)) for t, y in shape.points[1:]]
            ratios = [(y / t).ln() for t, y in pts]
            k = max(i for i, r in enumerate(ratios) if r >= T)
            if ratios[k] == T:
                return pts[k][0].ln()
            (ta, ya), (tb, yb) = pts[k], pts[k + 1]
            s = (yb - ya) / (tb - ta)
            return ((ya - s * ta) / (T.exp() - s)).ln()
        a, b = (1.0, 1.0) if shape.family == "qa_phi" else (shape.alpha, shape.beta)
        x = Decimal(0)
        if b:
            flat = Decimal(1.0 - b / a)
            log_top = Decimal((a - b) + b * math.log(b / a))
            if T <= log_top - flat:
                return log_top - T
            x = min(x, flat)
        am1, b = Decimal(a - 1.0), Decimal(b)
        if not am1:
            return 1 - (T / b).exp()
        if not b:
            return T / am1
        # the formula is concave and decreasing, and at the start (0, or the
        # flat point) it is below target, so Newton's iterates fall to the root
        for _ in range(200):
            step = (am1 * x + b * (1 - x).ln() - T) / (am1 - b / (1 - x))
            x -= step
            if abs(step) <= Decimal("1e-55") * max(1, abs(x)):
                return x
        raise AssertionError("the oracle did not converge")


class TestClosedFormInverse:
    PHIS = [
        qa_phi(),
        alpha_beta(1.0, 0.4),
        alpha_beta(1.0, 0.05),
        # b in {0.7, 1} with a = 0.3 and b = 1 with a = 0.8 flatten: b > a
        *(alpha_beta(a, b) for a in (0.3, 0.8) for b in (0.0, 0.05, 0.3, 0.7, 1.0)),
        constant_one(),
        piecewise([(0, 0), (0.01, 0.1), (0.25, 0.5), (0.5, 0.75), (1, 1)]),
    ]
    # 1e-12 to 10^2.75 in eighth decades, the float-range edge of qa_phi, and
    # targets inside every piecewise segment
    TARGETS = (*(10.0 ** (k / 8) for k in range(-96, 23)), 0.35, 0.6, 1.0, 2.0, 709.0, 709.5)

    @pytest.mark.parametrize("phi", PHIS, ids=lambda p: f"{p.family}({p.alpha},{p.beta})")
    def test_within_4_ulp_of_the_oracle_and_never_behind_the_bisection(self, phi):
        compared = 0
        for log_hi in (0.0, -3.0):
            for target in self.TARGETS:
                try:
                    x = log_gamma_inv(phi, target, log_hi)
                except NotInvertible:
                    continue
                exact = min(_exact_log_gamma_inv(phi, target), Decimal(log_hi))
                error = abs(Decimal(x) - exact)
                assert error <= 4 * Decimal(math.ulp(float(exact))), (target, log_hi, x, exact)
                try:
                    old = _bisection_log_gamma_inv(phi, target, log_hi)
                except NotInvertible:  # 709.5 for qa_phi: past where its bracket stopped
                    continue
                assert error <= abs(Decimal(old) - exact), (target, log_hi, x, old, exact)
                compared += 1
        assert compared >= 20

    def test_round_trip_over_every_family_and_domain(self):
        targets = (-50.0, -3.0, -1.0, -0.3, -1e-6, 0.0, 1e-9, 0.2, 0.6, 1.0, 3.0, 40.0, 700.0)
        inverted = set()
        for shape in TestFamilyTable().members():
            for log_hi in (0.0, -3.0) + ((2.0,) if shape.domain_kind == "psi" else ()):
                for target in targets:
                    try:
                        x = log_gamma_inv(shape, target, log_hi)
                    except (NotInvertible, UnsupportedFamily, DomainError):
                        continue
                    assert x <= log_hi
                    assert log_gamma(shape, x) == pytest.approx(target, rel=1e-13, abs=1e-15)
                    inverted.add(shape.family)
        # identity's ratio is constant, and alpha_beta(1, 0) is identity
        assert inverted == set(shapes_module._TABLE) - {"identity"}

    @pytest.mark.parametrize("phi", [qa_phi(), alpha_beta(1.0, 0.4)], ids=["qa_phi", "ab(1,0.4)"])
    def test_float_range_edge_is_named(self, phi):
        edge = log_gamma(phi, -sys.float_info.max)
        assert -sys.float_info.max <= log_gamma_inv(phi, edge) < -1e307
        over = math.nextafter(edge, math.inf)
        message = (
            f"target {over!r} beyond the largest invertible target {edge!r}"
            f" (log gamma at log t = {-sys.float_info.max!r})"
        )
        with pytest.raises(NotInvertible, match=re.escape(message)):
            log_gamma_inv(phi, over)
        # the reference bisection's bracket stops at log t = -2^1023; targets
        # between there and the edge still have float answers
        deepest = log_gamma(phi, -(2.0**1023))
        between = 0.5 * (deepest + edge)
        with pytest.raises(NotInvertible, match="not reached within float range"):
            _bisection_log_gamma_inv(phi, between)
        assert log_gamma_inv(phi, between) < -(2.0**1023)

    @pytest.mark.parametrize("g", [1.0, 0.4])
    @pytest.mark.parametrize("target", [-1e-300, -1e-12, -5.0, -1e5, -1.7e308])
    def test_psi_gamma_as_psi_from_the_origin_to_the_float_edge(self, g, target):
        # near the origin g = 1 makes x - log1p(x) vanish to second order, and
        # near the edge the start of the Newton solve overflows
        psi = psi_gamma(g)
        x = log_gamma_inv(psi, target, log_hi=sys.float_info.max)
        assert 0.0 < x < math.inf
        assert log_gamma(psi, x) == pytest.approx(target, rel=1e-9, abs=1e-20)

    @pytest.mark.parametrize(
        "shape, target, message",
        [
            (identity(), 0.0, "constant below log t = 0.0"),
            (identity(), 2.0, "constant below log t = 0.0"),
            (alpha_beta(1.0, 0.0), 0.0, "constant below log t = 0.0"),
            (psi_gamma(0.5), 0.0, "constant below log t = 0.0"),
            (qa_phi(), -1.0, "below attainable minimum 0.0"),
            (qa_phi(), math.nan, "target nan below attainable minimum"),
            (constant_one(), math.inf, "target inf beyond the largest invertible target"),
        ],
    )
    def test_refusals_name_their_reason(self, shape, target, message):
        with pytest.raises(NotInvertible, match=re.escape(message)):
            log_gamma_inv(shape, target)


class TestConcavityHelpers:
    def test_is_concave(self):
        assert is_concave([(0, 0), (0.5, 0.8), (1.0, 1.0)])
        assert not is_concave([(0, 0), (0.5, 0.2), (1.0, 1.0)])

    def test_is_quasiconcave(self):
        pts = [(t / 50, qa_phi().eval(t / 50)) for t in range(0, 51)]
        assert is_quasiconcave(pts)
        assert not is_quasiconcave([(0, 0), (0.5, 0.1), (1.0, 1.0)])

    def test_majorant_dominates_and_is_concave(self):
        samples = [(0, 0), (0.25, 0.1), (0.5, 0.9), (1.0, 1.0)]
        hull = least_concave_majorant(samples)
        assert hull.family == "piecewise"
        for t, y in samples:
            assert hull.eval(t) >= y - 1e-12
        assert is_concave(hull.points)

    def test_majorant_of_quasiconcave_stays_within_double(self):
        pts = [(t / 40, qa_phi().eval(t / 40)) for t in range(0, 41)]
        hull = least_concave_majorant(pts)
        for t, y in pts[1:]:
            assert hull.eval(t) <= 2.0 * y + 1e-12


class TestAssumptionChecks:
    def test_ratio_monotone_needs_small_enough_p(self):
        # phi(t)/sqrt(t) turns around at t = 1/e, so p = 1 must fail
        # and p = 1/e must pass
        rep = check_assumptions(qa_phi(), qa_psi(), [0.5], [1.0, 1.0 / math.e])
        assert rep.phi_ratio_monotone
        assert rep.p == 1.0 / math.e
        assert rep.c == 0.5
        only_one = check_assumptions(qa_phi(), qa_psi(), [0.5], [1.0])
        assert not only_one.phi_ratio_monotone

    def test_psi_square_constant(self):
        rep = check_assumptions(qa_phi(), qa_psi(), [0.5], [0.25])
        assert rep.psi_square_bounded
        want = max(
            (1.0 + math.log(n * n)) / (1.0 + math.log(n)) for n in range(1, 257)
        )
        assert rep.psi_square_constant == want

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            check_assumptions(qa_phi(), qa_psi(), [], [0.5])
        with pytest.raises(ValueError):
            check_assumptions(qa_phi(), qa_psi(), [1.5], [0.5])


class TestJsonForms:
    def test_roundtrip_all_families(self):
        shapes = [
            qa_phi(),
            qa_psi(),
            alpha_beta(0.5, 1.0),
            psi_gamma(0.5),
            identity(),
            constant_one("psi"),
            piecewise([(0, 0), (0.5, 1.0), (1.0, 1.5)]),
        ]
        for shape in shapes:
            assert parse_shape(shape_to_json(shape)) == shape

    def test_expected_kind_fills_domain(self):
        shape = parse_shape({"family": "identity"}, expected_kind="psi")
        assert shape.domain_kind == "psi"

    def test_expected_kind_conflict(self):
        with pytest.raises(SpecParseError):
            parse_shape({"family": "identity", "domain": "phi"}, expected_kind="psi")

    def test_rejects_unknown_family_and_keys(self):
        with pytest.raises(SpecParseError):
            parse_shape({"family": "nope"})
        with pytest.raises(SpecParseError):
            parse_shape({"family": "qa_phi", "alpha": 1.0})
        with pytest.raises(SpecParseError):
            parse_shape("qa_phi")

    @pytest.mark.parametrize("spec, message", [
        ({"family": "alpha_beta", "alpha": True, "beta": 1}, "'alpha': expected a number, got true"),
        ({"family": "psi_gamma", "gamma": "0.5"}, "'gamma': expected a number, got \"0.5\""),
        ({"family": "piecewise", "points": [[0, 0], [0.5, None]]},
         "'points[1][1]': expected a number, got null"),
        ({"family": "piecewise", "points": [0, 0, 1, 1]}, "'points[0]': expected a list, got 0"),
        ({"family": True}, "'family': unknown shape family true"),
        ({"family": "identity", "domain": "phi"}, "'domain': 'phi' conflicts with the expected 'psi'"),
    ])
    def test_parameters_are_json_numbers(self, spec, message):
        with pytest.raises(SpecParseError) as info:
            parse_shape(spec, expected_kind="psi")
        assert str(info.value) == message

    def test_rejects_bad_parameters(self):
        with pytest.raises(SpecParseError):
            parse_shape({"family": "alpha_beta", "alpha": 2.0, "beta": 0.5})
        with pytest.raises(SpecParseError):
            parse_shape({"family": "psi_gamma"})


def _outcome(f, x):
    """f(x) as a comparable record: repr of the value, or the error raised."""
    try:
        return repr(f(x))
    except Exception as exc:  # the records of both sides are compared whole
        return type(exc).__name__, str(exc)


class TestFamilyTable:
    # one member per family and domain; every family in the table must appear
    MEMBERS = {
        "alpha_beta": [dict(alpha=0.5, beta=0.7), dict(alpha=1.0, beta=0.0)],
        "qa_phi": [{}],
        "psi_gamma": [dict(exponent=0.4), dict(exponent=0.0)],
        "qa_psi": [{}],
        "identity": [{}],
        "constant_one": [{}],
        "piecewise": [dict(points=((0.0, 0.0), (0.5, 1.0), (1.0, 1.5)))],
    }
    PSI_ONLY = [ShapeFunction("piecewise", points=((0, 0), (1, 1), (4, 2)), domain_kind="psi")]
    LOG_GRID = (-0.0, 0.0, -1.7e308, -1e15, -40.0, -1.0, -1e-9, 1e-9, 0.5, 2.0, 50.0, 1e300)
    T_GRID = (-0.0, 0.0, 1e-300, 0.25, 1.0, 1.5, math.e, 1e10, 1e300)

    def members(self):
        for family, params in self.MEMBERS.items():
            for p in params:
                for kind in ("phi", "psi"):
                    yield ShapeFunction(family, domain_kind=kind, **p)
        yield from self.PSI_ONLY

    def test_covers_every_family(self):
        assert set(self.MEMBERS) == set(shapes_module._TABLE)

    def test_parameters_the_family_does_not_take_are_refused(self):
        # a value for every parameter, from the members of the families that take it
        values = {k: v for params in self.MEMBERS.values() for p in params for k, v in p.items()}
        assert set(values) == {f.name for f in fields(ShapeFunction)} - {"family", "domain_kind"}
        for family, entry in shapes_module._TABLE.items():
            own = self.MEMBERS[family][0]
            assert set(own) == {field for field, _, _ in entry.params}
            for name in values.keys() - own.keys():
                for kind in ("phi", "psi"):
                    with pytest.raises(IllegalSpec, match=f"^the {family} family takes no {name}$"):
                        ShapeFunction(family, domain_kind=kind, **own, **{name: values[name]})

    def test_json_round_trip_in_each_domain(self):
        for shape in self.members():
            spec = shape_to_json(shape)
            assert parse_shape(spec) == shape
            assert parse_shape(spec, expected_kind=shape.domain_kind) == shape
            # a spec without its domain key takes the expected kind
            spec.pop("domain", None)
            assert parse_shape(spec, expected_kind=shape.domain_kind) == shape

    def test_unknown_keys_rejected(self):
        for shape in self.members():
            with pytest.raises(SpecParseError, match="unknown keys"):
                parse_shape({**shape_to_json(shape), "bogus": 1})

    def test_equal_members_hash_equal(self):
        for shape in self.members():
            twin = parse_shape(shape_to_json(shape), expected_kind=shape.domain_kind)
            assert twin == shape and twin is not shape
            # the hash is computed once, from the same fields as equality
            assert hash(twin) == hash(shape) == hash(shape.__reduce__()[1])

    def test_pickle_round_trip(self):
        for shape in self.members():
            back = pickle.loads(pickle.dumps(shape))
            assert back == shape and hash(back) == hash(shape) and repr(back) == repr(shape)
            for x in self.LOG_GRID:
                assert _outcome(back.log_gamma_eval, x) == _outcome(shape.log_gamma_eval, x)
            for t in self.T_GRID:
                assert _outcome(back, t) == _outcome(shape.eval, t)

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_qa_phi_is_alpha_beta_one_one_bitwise(self, kind):
        qa = ShapeFunction("qa_phi", domain_kind=kind)
        ab = ShapeFunction("alpha_beta", alpha=1.0, beta=1.0, domain_kind=kind)
        for t in self.T_GRID:
            assert _outcome(qa.eval, t) == _outcome(ab.eval, t)
        for x in self.LOG_GRID:
            assert _outcome(qa.log_eval, x) == _outcome(ab.log_eval, x)
            assert _outcome(qa.log_gamma_eval, x) == _outcome(ab.log_gamma_eval, x)

    def test_qa_phi_as_psi_holds_its_maximum(self):
        psi = parse_shape({"family": "qa_phi"}, expected_kind="psi")
        assert psi.log_eval(2.0) == 0.0
        assert psi.eval(10.0) == 1.0
        assert psi.log_gamma_eval(3.0) == -3.0
