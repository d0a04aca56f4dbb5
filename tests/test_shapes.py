import math
import pickle
import random
import re
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaspace import (
    DomainError,
    EmptyInput,
    IllegalSpec,
    NotInvertible,
    ShapeFunction,
    SpecParseError,
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

    @pytest.mark.parametrize("t", ["0.5", b"0.5", bytearray(b"0.5"), True, False], ids=repr)
    def test_refuses_text_and_bools(self, t):
        for shape in (qa_phi(), qa_psi()):
            with pytest.raises(ValueError, match="^t: expected a number, got "):
                shape.eval(t)
            with pytest.raises(ValueError, match="^t: expected a number, got "):
                shape(t)


TEXT_AND_BOOLS = ["0.5", b"0.5", bytearray(b"0.5"), "-1", True, False]


# each read text or a bool as a number, or raised a bare TypeError for text
# (gamma(qa_phi(), "0.5") answered 1.6931471805599454, log_eval("-1") compared a
# str with a float); each now refuses it, naming the argument
class TestTextAndBools:
    @pytest.mark.parametrize("t", TEXT_AND_BOOLS, ids=repr)
    def test_gamma(self, t):
        with pytest.raises(ValueError, match="^t: expected a number, got "):
            gamma(qa_phi(), t)

    @pytest.mark.parametrize("y", TEXT_AND_BOOLS, ids=repr)
    def test_gamma_inv(self, y):
        with pytest.raises(ValueError, match="^y: expected a number, got "):
            gamma_inv(qa_phi(), y)

    @pytest.mark.parametrize("log_t", TEXT_AND_BOOLS, ids=repr)
    def test_log_eval(self, log_t):
        for shape in (qa_phi(), qa_psi()):
            with pytest.raises(ValueError, match="^log_t: expected a number, got "):
                shape.log_eval(log_t)

    @pytest.mark.parametrize("log_t", TEXT_AND_BOOLS, ids=repr)
    def test_log_gamma_eval(self, log_t):
        for shape in (qa_phi(), qa_psi()):
            with pytest.raises(ValueError, match="^log_t: expected a number, got "):
                shape.log_gamma_eval(log_t)

    @pytest.mark.parametrize("log_t", TEXT_AND_BOOLS, ids=repr)
    def test_log_gamma(self, log_t):
        with pytest.raises(ValueError, match="^log_t: expected a number, got "):
            log_gamma(qa_phi(), log_t)

    def test_numbers_are_still_read(self):
        phi = qa_phi()
        assert gamma(phi, 1) == gamma(phi, 1.0) == 1.0
        assert gamma(phi, Fraction(1, 2)) == gamma(phi, 0.5)
        assert gamma_inv(phi, 2) == gamma_inv(phi, 2.0)
        assert phi.log_eval(-1) == phi.log_eval(-1.0)
        assert phi.log_gamma_eval(-1) == log_gamma(phi, -1.0)


def _four_check_eval(formula, log_hi, t):
    """eval as the guard was before its one-comparison fast path, the reference."""
    t_hi = math.exp(log_hi)
    t = float(t)
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"argument {t!r} outside domain")
    if t > t_hi:
        raise DomainError(f"phi-kind shapes live on [0,1], got {t!r}")
    if t == 0.0:
        return 0.0
    return formula(t)


def _bits(f, t):
    """f(t) as its value's bits, or the type and message of what it raised."""
    try:
        return struct.pack("<d", f(t))
    except Exception as exc:  # both sides' records are compared whole
        return type(exc).__name__, str(exc)


class TestGuard:
    @pytest.mark.parametrize("shape, log_hi", [(alpha_beta(0.5, 0.7), 0.0),
                                               (psi_gamma(0.4), math.inf)], ids=["phi", "psi"])
    @pytest.mark.parametrize("t", [0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), 1e308,
                                   math.inf, -math.inf, math.nan, -1.0, 0, 1, 3], ids=repr)
    def test_the_fast_path_answers_as_the_four_checks(self, shape, log_hi, t):
        formula = shapes_module._TABLE[shape.family].build(shape)[0]
        assert _bits(shape.eval, t) == _bits(lambda t: _four_check_eval(formula, log_hi, t), t)


class TestValidation:
    def test_alpha_beta_ranges(self):
        with pytest.raises(IllegalSpec):
            alpha_beta(0.0, 0.5)
        with pytest.raises(IllegalSpec):
            alpha_beta(1.5, 0.5)
        with pytest.raises(IllegalSpec):
            alpha_beta(0.5, -0.1)

    # a subnormal alpha made beta/alpha inf: phi was inf everywhere, and
    # check-seq printed a NaN step ratio with exit 0
    def test_alpha_beta_refuses_a_ratio_past_the_float_range(self):
        message = "alpha_beta(5e-309, 1.0) has beta/alpha above the largest float"
        with pytest.raises(IllegalSpec, match=f"^{re.escape(message)}$"):
            alpha_beta(5e-309, 1.0)
        assert math.isfinite(alpha_beta(5.6e-309, 1.0).eval(0.5))
        assert alpha_beta(5e-324, 0.0).eval(0.5) == 0.5**5e-324

    def test_psi_gamma_range(self):
        with pytest.raises(IllegalSpec):
            psi_gamma(1.5)

    # the builders pass their arguments to the family's reader unconverted,
    # where float() read text and bools as numbers and raised a bare
    # OverflowError past the float range; a Fraction is refused as in a
    # ShapeFunction call
    @pytest.mark.parametrize("build, message", [
        (lambda: alpha_beta("0.5", 0.5), "alpha_beta family's 'alpha': expected a number, got \"0.5\""),
        (lambda: alpha_beta(True, 0.5), "alpha_beta family's 'alpha': expected a number, got true"),
        (lambda: alpha_beta(0.5, False), "alpha_beta family's 'beta': expected a number, got false"),
        (lambda: alpha_beta(10**400, 1), "alpha_beta family's 'alpha': int too large to convert to float"),
        (lambda: alpha_beta(Fraction(1, 2), 1.0),
         "alpha_beta family's 'alpha': expected a number, got \"Fraction(1, 2)\""),
        (lambda: psi_gamma("1"), "psi_gamma family's 'exponent': expected a number, got \"1\""),
        (lambda: psi_gamma(True), "psi_gamma family's 'exponent': expected a number, got true"),
    ])
    def test_builders_refuse_what_the_reader_refuses(self, build, message):
        with pytest.raises(IllegalSpec, match=f"^the {re.escape(message)}$"):
            build()

    def test_builders_read_ints_as_floats(self):
        assert alpha_beta(1, 1) == ShapeFunction("alpha_beta", alpha=1.0, beta=1.0)
        assert repr(psi_gamma(1)) == repr(psi_gamma(1.0))

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

    @pytest.mark.parametrize("points", [[(0, 0), (1, 5e-324), (2, 5e-324)], [(0, 0), (2, 5e-324)]])
    def test_rejects_a_sample_whose_ratio_underflows_by_name(self, points):
        # 5e-324 / 2 rounds to 0, whose log gamma has no float
        message = r"piecewise sample \(2\.0, 5e-324\) has y/t below the least float$"
        with pytest.raises(IllegalSpec, match=f"^{message}"):
            piecewise(points, kind="psi")
        spec = {"family": "piecewise", "points": [list(p) for p in points], "domain": "psi"}
        with pytest.raises(SpecParseError, match=message):
            parse_shape(spec)

    @pytest.mark.parametrize(
        "points", [[(0, 0), (5e-324, 1.0), (1, 1.0)], [(0, 0), (0.5, 1e308), (1, 1.7e308)]]
    )
    def test_rejects_a_sample_whose_ratio_overflows_by_name(self, points):
        # y/t rounds to inf, whose log gamma has no float (the inverse raised OverflowError)
        t, y = points[1]
        message = re.escape(f"piecewise sample ({t!r}, {y!r}) has y/t above the largest float")
        message += "$"
        with pytest.raises(IllegalSpec, match=f"^{message}"):
            piecewise(points)
        with pytest.raises(SpecParseError, match=message):
            parse_shape({"family": "piecewise", "points": [list(p) for p in points]})

    @pytest.mark.parametrize(
        "points, kind, message",
        [
            ([(0, 0), (0.5, 1), (0.5, 1.2)], "phi",
             "piecewise sample abscissae must strictly increase"),
            ([(0, 0), (0.5, 1), (0.25, 1.2)], "psi",
             "piecewise sample abscissae must strictly increase"),
            ([(0, 0), (0.5, -1)], "phi", "piecewise samples must be non-negative"),
            ([(0, 0), (0.5, 1), (2, 1.5)], "phi",
             "phi-kind piecewise samples must stay within [0,1]"),
        ],
    )
    def test_refusals_name_their_reason(self, points, kind, message):
        with pytest.raises(IllegalSpec, match=f"^{re.escape(message)}$"):
            piecewise(points, kind=kind)

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

    @pytest.mark.parametrize("log_t", [math.log(10.0) + 1e-9, 709.0, 710.0, 1e300, math.inf])
    def test_psi_log_forms_past_the_last_sample_are_refused_by_name(self, log_t):
        # past the float range too, where e^log_t itself would overflow
        psi = piecewise([(0, 0), (1, 1), (10, 2)], kind="psi")
        for form in (psi.log_eval, psi.log_gamma_eval):
            with pytest.raises(DomainError, match=r"^piecewise shape sampled only up to 10.0, got "):
                form(log_t)

    def test_log_forms_of_the_zero_shape_are_refused(self):
        # with no sample after the origin there is no log form: the shape does not build
        message = r"piecewise needs a sample after \(0, 0\)$"
        for kind in ("phi", "psi"):
            with pytest.raises(IllegalSpec, match=f"^{message}"):
                piecewise([(0, 0)], kind=kind)
            with pytest.raises(SpecParseError, match=message):
                parse_shape({"family": "piecewise", "points": [[0, 0]], "domain": kind})


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

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.inf, math.nan])
    def test_gamma_refuses_t_off_the_unit_interval(self, t):
        with pytest.raises(DomainError, match=r"^gamma needs t in \(0, 1\]$"):
            gamma(qa_phi(), t)

    @pytest.mark.parametrize("y", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_inv_refuses_a_target_that_is_not_finite_and_positive(self, y):
        with pytest.raises(DomainError, match="^gamma_inv needs a finite positive target$"):
            gamma_inv(qa_phi(), y)

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
                    except (NotInvertible, DomainError):
                        continue
                    assert x <= log_hi
                    assert log_gamma(shape, x) == pytest.approx(target, rel=1e-13, abs=1e-15)
                    inverted.add(shape.family)
        # identity's ratio is constant, and alpha_beta(1, 0) is identity
        assert inverted == set(shapes_module._TABLE) - {"identity"}

    # log gamma falls from 706.9 to -29.2 along the second chord, anchored at
    # t = 1: from target 680 on, expm1 of the target less the anchor's log
    # gamma, times the anchor's ratio, leaves the float range (the answer was
    # -inf, or OverflowError from 690)
    def test_piecewise_inverse_past_expm1s_range(self):
        phi = piecewise([(0, 0), (1e-320, 1e-13), (1, 2e-13)])
        for target in (600.0, 679.0, 680.0, 690.0, 700.0, 706.0, 706.89):
            x = log_gamma_inv(phi, target)
            exact = _exact_log_gamma_inv(phi, target)
            assert abs(Decimal(x) - exact) <= 4 * Decimal(math.ulp(float(exact))), (target, x)

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

    # from 1e299 on, the Newton residual's rounding error of am1 * x is taken
    # as 0 (Dekker's split would overflow), and for the smaller betas the
    # Lambert-W argument overflows, so x is target / am1
    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 0.1), (0.3, 0.05), (0.9, 0.01)])
    def test_deep_targets_round_trip_exactly(self, a, b):
        phi = alpha_beta(a, b)
        edge = log_gamma(phi, -sys.float_info.max)
        for target in [*(t for t in (10.0**k for k in range(299, 309)) if t < edge), edge]:
            x = log_gamma_inv(phi, target)
            assert math.isfinite(x)
            assert log_gamma(phi, x) == target, (target, x)

    # past 1e299 most targets fall between the log gammas of two adjacent
    # floats, so no x hits them exactly: the answer is held to the oracle
    @pytest.mark.parametrize("a, b",
                             [(0.9, 0.01), (0.3, 0.05), (0.5, 0.5), (0.7, 0.75), (0.5, 0.1)])
    def test_deep_targets_are_within_4_ulp_of_the_oracle(self, a, b):
        phi = alpha_beta(a, b)
        rng = random.Random(35)
        lo, hi = math.log(1e299), math.log(log_gamma(phi, -sys.float_info.max))
        for target in (math.exp(rng.uniform(lo, hi)) for _ in range(400)):
            x = log_gamma_inv(phi, target)
            exact = _exact_log_gamma_inv(phi, target)
            assert abs(Decimal(x) - exact) <= 4 * Decimal(math.ulp(float(exact))), (target, x)

    # exp of a sample's log can round past the sample, and log gamma there can
    # round below the last sample's ratio; both refused this round trip
    def test_piecewise_round_trips_at_every_sample_past_the_first(self):
        rng = random.Random(35)
        trips = 0
        for _ in range(3000):
            k = rng.randint(2, 4)
            ts = sorted(t / 1e6 for t in rng.sample(range(1, 10**6 + 1), k))
            slopes = sorted((rng.uniform(0.01, 5.0) for _ in range(k)), reverse=True)
            pts = [(0.0, 0.0)]
            for t, s in zip(ts, slopes):  # falling slopes: concave
                pts.append((t, pts[-1][1] + s * (t - pts[-1][0])))
            phi = piecewise(pts)
            for t, _ in pts[2:]:
                x = math.log(t)
                assert log_gamma_inv(phi, phi.log_gamma_eval(x), x) == x, (pts, t)
                trips += 1
        assert trips > 5000

    def test_piecewise_answers_a_target_below_its_last_sample_with_it(self):
        # log_gamma_inv has refused any target below log gamma at hi, so the
        # family's inverse sees one below the last sample's only by rounding
        two = piecewise([(0, 0), (0.25, 0.5), (0.5, 0.75)])
        assert two._log_gamma_inv(-1.0, math.log(0.5)) == math.log(0.5)
        one = piecewise([(0, 0), (0.5, 0.5)])  # flat up to its one sample
        message = f"constant below log t = {math.log(0.5)!r}"
        with pytest.raises(NotInvertible, match=re.escape(message)):
            one._log_gamma_inv(-1.0, math.log(0.5))

    def test_piecewise_refuses_a_chord_through_the_origin(self):
        # the samples lie on y = 0.9086524737219139 t up to rounding: y / t
        # falls by one ulp after the first, and both chords meet the origin,
        # so a target between the first two log ratios has no answer
        pts = [(0, 0), (0.2885955212063478, 0.262233034249213),
               (0.5176759245386915, 0.4703875094183609), (1.0, 0.9086524737219139)]
        message = "shape(t)/t is not strictly decreasing between the samples"
        with pytest.raises(NotInvertible, match=re.escape(message)):
            log_gamma_inv(piecewise(pts), -0.09579257504409606)

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
            (constant_one(), math.inf, "target inf beyond the largest invertible target"),
        ],
    )
    def test_refusals_name_their_reason(self, shape, target, message):
        with pytest.raises(NotInvertible, match=re.escape(message)):
            log_gamma_inv(shape, target)

    def test_a_nan_target_is_outside_the_domain(self):
        with pytest.raises(DomainError, match="^argument nan outside domain$"):
            log_gamma_inv(qa_phi(), math.nan)


class TestConcavityHelpers:
    def test_is_concave(self):
        assert is_concave([(0, 0), (0.5, 0.8), (1.0, 1.0)])
        assert not is_concave([(0, 0), (0.5, 0.2), (1.0, 1.0)])

    def test_is_quasiconcave(self):
        pts = [(t / 50, qa_phi().eval(t / 50)) for t in range(0, 51)]
        assert is_quasiconcave(pts)
        assert not is_quasiconcave([(0, 0), (0.5, 0.1), (1.0, 1.0)])

    @pytest.mark.parametrize("samples", [
        [(0, 0.5), (1.0, 1.0)],  # not zero at 0
        [(0, 0), (0.5, 0.0), (1.0, 1.0)],  # not positive after 0
        [(0, 0), (0.5, 1.0), (1.0, 0.5)],  # decreasing, though y/t does not increase
    ])
    def test_each_quasiconcave_condition_can_fail(self, samples):
        assert not is_quasiconcave(samples)

    # every comparison with NaN is false, and both checks answered True here
    @pytest.mark.parametrize("samples", [
        [(0, 0), (0.5, math.nan), (1.0, 1.0)],
        [(0, 0), (0.5, 0.5), (1.0, math.nan)],
        [(0, 0), (1.0, math.nan)],
        [(0, 0), (math.nan, 1.0)],
    ])
    def test_a_nan_sample_fails_both_checks(self, samples):
        assert not is_concave(samples)
        assert not is_quasiconcave(samples)

    def test_majorant_dominates_and_is_concave(self):
        samples = [(0, 0), (0.25, 0.1), (0.5, 0.9), (1.0, 1.0)]
        hull = least_concave_majorant(samples)
        assert hull.family == "piecewise"
        for t, y in samples:
            assert hull.eval(t) >= y - 1e-12
        assert is_concave(hull.points)

    @pytest.mark.parametrize(
        "samples, error, message",
        [
            ([], EmptyInput, "no samples"),
            ([(0.1, 0), (1, 1)], IllegalSpec, "samples must start at (0, 0)"),
            ([(0, 0), (0.5, 1), (0.5, 1.2)], IllegalSpec,
             "sample abscissae must strictly increase within [0,1]"),
            ([(0, 0), (0.5, 1), (1.5, 1.2)], IllegalSpec,
             "sample abscissae must strictly increase within [0,1]"),
            ([(0, 0), (0.5, -1)], IllegalSpec, "samples must be non-negative"),
        ],
    )
    def test_majorant_refusals_name_their_reason(self, samples, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            least_concave_majorant(samples)

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

    def test_a_dip_narrower_than_a_grid_step_fails(self):
        # qa_phi's elasticity 1 - 1/(1 - log t) is 0 at t = 1, so no c > 0 holds
        # up to p = 1; a 1,000-point grid once passed c = 0.01 there
        rep = check_assumptions(qa_phi(), qa_psi(), [0.01], [1.0])
        assert (rep.c, rep.p, rep.phi_ratio_monotone) == (0.01, 1.0, False)

    @pytest.mark.parametrize("psi, constant, bounded", [
        (qa_psi(), 2.0, True),
        (psi_gamma(0.5), 2**0.5, True),
        (identity("psi"), math.inf, False),  # psi(n^2)/psi(n) = n
        (constant_one("psi"), 1.0, True),
    ], ids=["qa_psi", "psi_gamma", "identity", "constant_one"])
    def test_psi_square_constant_is_the_supremum(self, psi, constant, bounded):
        rep = check_assumptions(qa_phi(), psi, [0.5], [0.25])
        assert (rep.psi_square_constant, rep.psi_square_bounded) == (constant, bounded)

    def test_a_shape_that_ends_is_refused(self):
        with pytest.raises(DomainError, match="^the phi-kind qa_phi shape ends before some n"):
            check_assumptions(qa_phi(), qa_phi(), [0.5], [0.25])
        with pytest.raises(DomainError, match="^the psi-kind piecewise shape ends before some n"):
            check_assumptions(qa_phi(), piecewise([(0, 0), (1, 1), (1e6, 2)], "psi"), [0.5], [0.25])
        with pytest.raises(DomainError, match="^piecewise shape sampled only up to 0.5, got 0.75$"):
            check_assumptions(piecewise([(0, 0), (0.5, 1)]), qa_psi(), [0.5], [0.75, 0.25])

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


FAMILIES = ("alpha_beta", "qa_phi", "psi_gamma", "qa_psi", "identity", "constant_one", "piecewise")
PARAM_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GUARANTEE_TOL = 1e-12  # float slack, relative to the values compared


def _concave_samples(rng, t_max):
    """Seeded samples from (0, 0): up to 5 abscissae in (0, t_max), then t_max,
    joined by positive slopes that fall, the last one sometimes 0."""
    ts = sorted(rng.uniform(0.0, t_max) for _ in range(rng.randint(1, 5)))
    ts = [t for t in ts if t > 0.0] + [t_max]
    slopes = sorted((rng.lognormvariate(0.0, 2.0) for _ in ts), reverse=True)
    slopes[-1] *= rng.random() < 0.7
    pts = [(0.0, 0.0)]
    for t, s in zip(ts, slopes):
        (t0, y0) = pts[-1]
        pts.append((t, y0 + s * (t - t0)))
    return tuple(pts)


def guarantee_members(family):
    """Members of one family on a parameter grid, in both domains."""
    rng = random.Random(27)
    params = {
        "alpha_beta": [dict(alpha=a, beta=b) for a in (0.05, *PARAM_GRID[1:]) for b in PARAM_GRID],
        "psi_gamma": [dict(exponent=g) for g in PARAM_GRID],
        "piecewise": [dict(points=_concave_samples(rng, 1.0)) for _ in range(10)],
    }.get(family, [{}])
    members = [ShapeFunction(family, domain_kind=kind, **kw) for kw in params for kind in ("phi", "psi")]
    if family == "piecewise":  # psi samples reach past 1
        members += [ShapeFunction(family, points=_concave_samples(rng, 100.0), domain_kind="psi")
                    for _ in range(10)]
    return members


def _domain_end(shape):
    return shape.points[-1][0] if shape.family == "piecewise" else (
        1.0 if shape.domain_kind == "phi" else 1e300)


def _scan_grid(end):
    """Log-spaced from 1e-300 to end, and evenly spaced on (0, min(end, 100)]."""
    lo, hi = math.log(1e-300), math.log(end)
    pts = {math.exp(lo + (hi - lo) * k / 1200) for k in range(1201)}
    pts.update(min(end, 100.0) * k / 1000 for k in range(1, 1001))
    return sorted(t for t in pts if 0.0 < t <= end) + [end] * (end not in pts)


def guarantee_violations(f, ts, concave):
    """Where the floats f(t) on ts break a guarantee beyond GUARANTEE_TOL:
    f(0) = 0 <= f(t), nondecreasing, and if concave, chord slopes and f(t)/t
    nonincreasing.  A list of (fact, t), empty when all hold."""
    ys = [f(t) for t in ts]
    out = [("nonnegative", t) for t, y in zip(ts, ys) if not y >= 0.0]
    out += [("nondecreasing", t1) for t1, y0, y1 in zip(ts[1:], ys, ys[1:])
            if not y1 >= y0 * (1.0 - GUARANTEE_TOL)]
    if concave:
        ratios = [y / t for t, y in zip(ts, ys)]
        out += [("ratio", t1) for t1, r0, r1 in zip(ts[1:], ratios, ratios[1:])
                if not r1 <= r0 * (1.0 + GUARANTEE_TOL)]
        # each slope is off by at most a few ulps of its two values over its step
        d = [b - a for a, b in zip(ts, ts[1:])]
        s = [(y1 - y0) / dt for y0, y1, dt in zip(ys, ys[1:], d)]
        out += [("concave", t) for t, s0, s1, d0, d1, y2 in zip(ts[1:], s, s[1:], d, d[1:], ys[2:])
                if not s1 - s0 <= GUARANTEE_TOL * y2 * (2.0 / d0 + 2.0 / d1)]
    return out


def _exact(shape):
    """The shape's formula at mpmath's working precision, from its float parameters."""
    mpf, log, e = mpmath.mpf, mpmath.log, mpmath.e
    family = shape.family
    if family in ("alpha_beta", "qa_phi"):
        a, b = (mpf(shape.alpha), mpf(shape.beta)) if family == "alpha_beta" else (mpf(1), mpf(1))
        top = e ** (a - b) * (b / a) ** b if b else None

        def ab(t):
            big_l = 1 - log(t)
            return top if b and big_l <= b / a else t**a * big_l**b
        return ab
    if family in ("psi_gamma", "qa_psi"):
        g = mpf(shape.exponent) if family == "psi_gamma" else mpf(1)
        return lambda t: t if t < 1 else (1 + log(t)) ** g
    if family == "identity":
        return lambda t: t
    if family == "constant_one":
        return lambda t: mpf(1)
    pts = [(mpf(t), mpf(y)) for t, y in shape.points]

    def chords(t):
        for (t0, y0), (t1, y1) in zip(pts, pts[1:]):
            if t <= t1:
                return y0 + (y1 - y0) * (t - t0) / (t1 - t0)
    return chords


SPOT_TS = (1e-300, 1e-100, 1e-20, 1e-6, 1e-3, 0.01, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.99,
           1.0, 1.5, 2.0, 3.0, 10.0, 100.0, 1e6, 1e100, 1e300)


class TestGuarantees:
    """The first two facts stated below shapes._TABLE, for every family on a
    parameter grid: (G1) every member is nondecreasing, (G2) a phi-kind member is
    concave on (0, 1] with phi(t)/t nonincreasing.  A float scan over 2,200
    points per member, with GUARANTEE_TOL, and a 60-digit mpmath spot check
    of the exact formulas, which the floats must also match."""

    def test_every_family_is_covered(self):
        assert set(FAMILIES) == set(shapes_module._TABLE)

    def test_the_scan_catches_a_violation(self):
        ts = _scan_grid(1.0)
        assert {fact for fact, _ in guarantee_violations(lambda t: t * t, ts, True)} == {
            "ratio", "concave"}
        assert guarantee_violations(lambda t: 1.0 - t, ts, False)[0][0] == "nondecreasing"
        assert guarantee_violations(lambda t: t * (1.0 - math.log(t)), ts, True) == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_float_scan(self, family):
        members = guarantee_members(family)
        assert len(members) >= 2
        for shape in members:
            ts = _scan_grid(_domain_end(shape))
            assert shape.eval(0.0) == 0.0
            assert guarantee_violations(shape.eval, ts, shape.domain_kind == "phi") == [], shape

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mpmath_spot_check(self, family):
        with mpmath.workdps(60):
            tol = mpmath.mpf(10) ** -50
            for shape in guarantee_members(family):
                f = _exact(shape)
                ts = [t for t in SPOT_TS if t <= _domain_end(shape)]
                exact_ts = [mpmath.mpf(t) for t in ts]  # each float read exactly
                ys = list(map(f, exact_ts))
                for t, y in zip(ts, ys):
                    assert abs(shape.eval(t) - y) <= 1e-12 * y, (shape, t)
                assert all(y1 >= y0 * (1 - tol) for y0, y1 in zip(ys, ys[1:])), shape
                if shape.domain_kind == "phi":
                    ratios = [y / t for t, y in zip(exact_ts, ys)]
                    assert all(r1 <= r0 * (1 + tol) for r0, r1 in zip(ratios, ratios[1:])), shape
                    s = [(y1 - y0) / (t1 - t0)
                         for t0, t1, y0, y1 in zip(exact_ts, exact_ts[1:], ys, ys[1:])]
                    assert all(s1 <= s0 + tol * abs(s0) for s0, s1 in zip(s, s[1:])), shape


GROWTH_PS = (1e-6, 0.01, 0.1, 1 / math.e, 0.5, 0.9, 1.0)
GROWTH_STEP = 1e-4  # the scan adds t(1 + step) at each kink and p(1 - step), where (G3) puts c(p)
GROWTH_NS = (*range(1, 2001), *(10**k for k in range(4, 151)))  # n^2 up to 1e300
GROWTH_LOG_NS = tuple(10.0**k for k in range(3, 300, 6))  # log n past the float range of n


def _kinks(shape, p):
    """The samples of a piecewise shape in (0, p): where (G3) takes its least elasticity."""
    return [t for t, _ in shape.points[1:] if t < p] if shape.family == "piecewise" else []


def _log_ratio_drops(shape, c, ts):
    """Where log(shape(t)/t^c) falls along ts by more than float rounding explains."""
    h = [shape.log_eval(math.log(t)) - c * math.log(t) for t in ts]
    return [t for t, h0, h1 in zip(ts[1:], h, h[1:])
            if h1 < h0 - 1e-12 * (1.0 + abs(h0) + abs(h1))]


class TestGrowthFacts:
    """(G3) c(p) and (G4) K, stated below shapes._TABLE, for every family on the
    TestGuarantees parameter grid: a float scan, which must find phi(t)/t^c
    nondecreasing at c = c(p) and falling at c(p) + 1e-3, and psi(n^2)/psi(n) at
    most K and reaching it, and a 60-digit mpmath check of the exact formulas."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_float_scan_of_c(self, family):
        for shape in guarantee_members(family):
            for p in GROWTH_PS:
                c = shape._ratio_exponent(p)
                assert 0.0 <= c <= 1.0
                near = [p * (1.0 - GROWTH_STEP), *(t * s for t in _kinks(shape, p)
                                                   for s in (1.0, 1.0 + GROWTH_STEP))]
                ts = sorted({*_scan_grid(p), *(t for t in near if t <= p)})
                assert _log_ratio_drops(shape, c, ts) == [], (shape, p)
                assert _log_ratio_drops(shape, c + 1e-3, ts) != [], (shape, p)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_float_scan_of_k(self, family):
        for shape in guarantee_members(family):
            k = shape._square_constant
            if shape.domain_kind == "phi" or shape.family == "piecewise":
                assert k is None  # psi(n^2) leaves the domain
                with pytest.raises(DomainError):
                    shape.eval(float(GROWTH_NS[-1] ** 2))
                continue
            ratios = [shape.eval(float(n * n)) / shape.eval(float(n)) for n in GROWTH_NS]
            # in logs a ratio carries the rounding of two logs up to 690 (2.3e-13 each)
            log_ratios = [shape.log_eval(2.0 * x) - shape.log_eval(x) for x in GROWTH_LOG_NS]
            assert max(ratios) <= k * (1.0 + 1e-15), shape
            assert max(log_ratios) <= math.log(k) + 1e-12, shape
            if k < math.inf:
                assert max(math.log(max(ratios)), max(log_ratios)) >= math.log(k) - 1e-12, shape
            else:
                assert max(log_ratios) > 700.0, shape

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mpmath_check(self, family):
        with mpmath.workdps(60):
            tol = mpmath.mpf(10) ** -12
            step = mpmath.mpf(10) ** -30
            for shape in guarantee_members(family)[::2]:  # c(p) is the same in both domains
                f = _exact(shape)

                def elasticity(t, step):
                    """d log f / d log t at t, from the side of step's sign, to about step."""
                    return (mpmath.log(f(t * (1 + step))) - mpmath.log(f(t))) / mpmath.log1p(step)

                for p in (0.01, 1 / math.e, 1.0):
                    # at p from the left, at each kink from the right, and spread below p
                    slopes = [elasticity(mpmath.mpf(p), -step),
                              *(elasticity(mpmath.mpf(t), step) for t in _kinks(shape, p)),
                              *(elasticity(p * mpmath.exp(-d), step) for d in (0.5, 3, 20, 200))]
                    c = shape._ratio_exponent(p)
                    assert abs(min(slopes) - c) <= tol, (shape, p)
            for shape in guarantee_members(family):
                if (k := shape._square_constant) is None:
                    continue
                f = _exact(shape)
                ns = [mpmath.mpf(n) for n in (1, 2, 3, 4, 5, 10, 1000, 10**6)]
                ns.append(mpmath.mpf(10) ** (10**20))  # where psi_gamma's ratio is 2^g to 1e-20
                ratios = [f(n * n) / f(n) for n in ns]
                if k < math.inf:
                    assert max(ratios) <= k * (1 + mpmath.mpf(2) ** -52), shape
                    assert max(ratios) >= k * (1 - tol), shape
                else:
                    assert ratios[-1] > mpmath.mpf(10) ** 100, shape


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
        assert set(values) == set(ShapeFunction._fields) - {"family", "domain_kind"}
        for family, entry in shapes_module._TABLE.items():
            own = self.MEMBERS[family][0]
            assert set(own) == {field for field, _, _ in entry.params}
            for name in values.keys() - own.keys():
                for kind in ("phi", "psi"):
                    with pytest.raises(IllegalSpec, match=f"^the {family} family takes no {name}$"):
                        ShapeFunction(family, domain_kind=kind, **own, **{name: values[name]})

    # a value of the wrong type for each parameter some family takes
    MISTYPED = {"alpha": "0.5", "beta": True, "exponent": [0.5], "points": 5}

    def test_parameters_of_the_wrong_type_are_refused_by_name(self):
        for family, entry in shapes_module._TABLE.items():
            own = self.MEMBERS[family][0]
            for name in own:
                with pytest.raises(IllegalSpec, match=f"^the {family} family's '{name}': expected a"):
                    ShapeFunction(family, **{**own, name: self.MISTYPED[name]})
        with pytest.raises(IllegalSpec, match=r"'points\[1\]\[0\]': expected a number, got \"0.5\"$"):
            ShapeFunction("piecewise", points=((0, 0), ("0.5", 0.75), (1, 1)))
        # whole numbers are numbers, kept as floats
        shape = ShapeFunction("alpha_beta", alpha=1, beta=0)
        assert shape == alpha_beta(1.0, 0.0) and repr(shape) == repr(alpha_beta(1.0, 0.0))

    def test_the_default_domain_is_the_familys(self):
        # domain_kind defaulted to "phi", so ShapeFunction("qa_psi") refused
        # t = 2.0, where qa_psi() and {"family": "qa_psi"} answer
        for family, entry in shapes_module._TABLE.items():
            shape = ShapeFunction(family, **self.MEMBERS[family][0])
            assert shape.domain_kind == entry.kind
            assert "domain" not in shape_to_json(shape)
            assert parse_shape(shape_to_json(shape)) == shape
        for shape, factory, value in ((ShapeFunction("qa_psi"), qa_psi(), 1.6931471805599454),
                                      (ShapeFunction("psi_gamma", exponent=0.4), psi_gamma(0.4),
                                       1.234462451836975)):
            assert shape == factory and repr(shape) == repr(factory)
            assert shape.eval(2.0) == value

    def test_nan_log_arguments_are_refused_by_every_family(self):
        # one guard for every family, so a family added to the table is covered
        for family in shapes_module._TABLE:
            for kind in ("phi", "psi"):
                shape = ShapeFunction(family, domain_kind=kind, **self.MEMBERS[family][0])
                for form in (shape.log_eval, shape.log_gamma_eval):
                    with pytest.raises(DomainError, match="^argument nan outside domain$"):
                        form(math.nan)

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
