"""Lorentz-type functional driven by a phi-kind shape.

For a step function the functional is a finite sum over the layer-cake form:
value = sum_k levels[k] * phi(measures[k]).  An equivalent reading splits off
the jump of phi at 0 (nonzero only for constant_one):

    value = linf(f) * phi(0+)  +  integral of the rearrangement against phi'.

Both parts are reported.  Everything is computed from the layer cake of |f|
(stepfn._layers), so the result is bit-identical across rearrangement.  The
terms of the sum come from layer_weights, which qanorm's layer table also
keeps as the weights of its single layers, so the two read the same floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import stepfn
from .errors import ZeroFunction
from .records import Record
from .shapes import ShapeFunction
from .stepfn import StepFunction


class LorentzNorm(Record):
    """Value of the functional with its jump/integral split."""

    value: float
    jump_part: float
    integral_part: float


def lorentz_norm(f: StepFunction, phi: ShapeFunction) -> LorentzNorm:
    """Layer-cake sum sum_k levels[k] * phi(measures[k]) over |f|."""
    den, heights, cum = stepfn._layers(f)
    value = nonneg_fsum(layer_weights(heights, den, cum, phi))
    jump = heights[0] * phi.zero_limit() if heights else 0.0
    return LorentzNorm(value, jump, value - jump)


def layer_weights(heights, den, cum, phi: ShapeFunction) -> list:
    """The terms (heights[k] - heights[k+1]) * phi(cum[k] / den) of the layer-cake
    sum, 0 below the last height; qanorm's layer table keeps them as the
    weights of its single layers."""
    floors = [*heights[1:], 0.0]
    return [weighted_sup_bound(a - b, c / den, phi) for a, b, c in zip(heights, floors, cum)]


def fundamental(phi: ShapeFunction, t) -> float:
    """Value on an indicator of measure t; coincides with lorentz_norm of one."""
    tf = float(t)
    if not 0.0 <= tf <= 1.0:
        raise ValueError("fundamental needs t in [0,1]")
    return phi.eval(tf)


def nonneg_fsum(terms) -> float:
    """fsum of non-negative terms: with none negative, fsum's OverflowError
    means the sum itself is beyond the float range, so it is inf."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def weighted_sup_bound(linf: float, ratio: float, phi: ShapeFunction) -> float:
    """linf * phi(ratio); the one shared formula, so piece costs recompute bit for bit."""
    return linf * phi.eval(ratio)


def fact_bound(f: StepFunction, phi: ShapeFunction) -> float:
    """linf(f) * phi(l1(f)/linf(f)), an upper envelope for the functional.

    The ratio is formed exactly (one rounding), so an indicator attains the
    functional value bit for bit.
    """
    linf = stepfn.linf_norm(f)
    if linf == 0.0:
        raise ZeroFunction("fact_bound is undefined for f == 0")
    ratio = float(stepfn.l1_norm_exact(f) / Fraction(linf))
    return weighted_sup_bound(linf, ratio, phi)
