import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings

from qaspace import (
    StepFunction,
    ZeroFunction,
    add,
    alpha_beta,
    constant,
    constant_one,
    fact_bound,
    fundamental,
    identity,
    indicator,
    linf_norm,
    lorentz_norm,
    qa_phi,
    rearrange,
)
from conftest import step_functions


def three_layer():
    return StepFunction((F(0), F(1, 4), F(1, 2), F(1)), (3.0, 1.0, 2.0))


class TestLorentzNorm:
    def test_hand_anchors(self):
        f = three_layer()
        assert lorentz_norm(f, qa_phi()).value == 2.5623351446188085
        assert lorentz_norm(f, alpha_beta(0.5, 1.0)).value == 3.619269819410479
        assert lorentz_norm(f, identity()).value == 2.0
        assert lorentz_norm(f, qa_phi()).jump_part == 0.0

    def test_indicator_matches_fundamental(self):
        for m in (F(1, 8), F(1, 3), F(1)):
            g = indicator(0, m, height=1.0)
            assert lorentz_norm(g, qa_phi()).value == fundamental(qa_phi(), float(m))

    def test_fundamental_edges(self):
        assert fundamental(qa_phi(), 0.0) == 0.0
        assert fundamental(qa_phi(), 1.0) == 1.0
        with pytest.raises(ValueError):
            fundamental(qa_phi(), 1.5)

    def test_constant_one_reads_off_sup(self):
        f = three_layer()
        got = lorentz_norm(f, constant_one())
        assert got.value == linf_norm(f)
        assert got.jump_part == linf_norm(f)
        assert got.integral_part == 0.0

    def test_zero_function(self):
        # positive zeros, also where f is -0.0
        mixed = StepFunction((F(0), F(1, 3), F(1, 2), F(1)), (-0.0, 0.0, -0.0))
        for f in (constant(0.0), constant(-0.0), mixed):
            for phi in (qa_phi(), constant_one()):
                got = lorentz_norm(f, phi)
                parts = (got.value, got.jump_part, got.integral_part)
                assert parts == (0.0, 0.0, 0.0)
                assert [math.copysign(1.0, x) for x in parts] == [1.0, 1.0, 1.0], (f, parts)

    def test_against_extended_precision(self):
        # independent Riemann-Stieltjes evaluation of the layer sum
        f = three_layer()
        with mpmath.workdps(50):
            phi = lambda t: t * (1 - mpmath.log(t))
            want = phi(mpmath.mpf(1) / 4) + phi(mpmath.mpf(3) / 4) + phi(1)
            got = lorentz_norm(f, qa_phi()).value
            assert abs(got - float(want)) <= 1e-14 * float(want)

    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariant_bitwise(self, f):
        for phi in (qa_phi(), alpha_beta(0.5, 1.0), identity()):
            a = lorentz_norm(f, phi)
            b = lorentz_norm(rearrange(f), phi)
            assert (a.value, a.jump_part, a.integral_part) == (
                b.value,
                b.jump_part,
                b.integral_part,
            )

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_layer_sum_identity(self, f):
        if all(v == 0.0 for v in f.values):
            return
        r = rearrange(f)
        n = r.pieces - (r.values[-1] == 0)  # without f*'s zero level
        heights, phi = r.values[:n], qa_phi()
        levels = (a - b for a, b in zip(heights, (*heights[1:], 0.0)))
        want = math.fsum(b * phi.eval(float(m)) for b, m in zip(levels, r.breakpoints[1:]))
        assert lorentz_norm(f, phi).value == want


class TestFactBound:
    def test_hand_anchor(self):
        assert fact_bound(three_layer(), qa_phi()) == 2.8109302162163283

    def test_indicator_attains_it_exactly(self):
        g = indicator(0, F(1, 3), height=2.5)
        assert fact_bound(g, qa_phi()) == lorentz_norm(g, qa_phi()).value

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            fact_bound(constant(0.0), qa_phi())

    @given(step_functions(signed=True))
    @settings(max_examples=80, deadline=None)
    def test_dominates_lorentz(self, f):
        if all(v == 0.0 for v in f.values):
            return
        for phi in (qa_phi(), alpha_beta(0.5, 1.0)):
            lo = lorentz_norm(f, phi).value
            assert fact_bound(f, phi) >= lo * (1.0 - 1e-12)

    @given(step_functions(), step_functions())
    @settings(max_examples=80, deadline=None)
    def test_monotone_under_domination(self, f, h):
        if all(v == 0.0 for v in f.values):
            return
        g = add(f, h)
        assert fact_bound(g, qa_phi()) >= fact_bound(f, qa_phi()) * (1.0 - 1e-12)

    @given(step_functions(signed=True))
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariant_bitwise(self, f):
        if all(v == 0.0 for v in f.values):
            return
        assert fact_bound(f, qa_phi()) == fact_bound(rearrange(f), qa_phi())
