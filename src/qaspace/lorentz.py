"""Lorentz-type functional driven by a phi-kind shape.

For a step function the functional is a finite sum over the layer-cake form:
value = sum_k levels[k] * phi(measures[k]).  An equivalent reading splits off
the jump of phi at 0 (nonzero only for constant_one):

    value = linf(f) * phi(0+)  +  integral of the rearrangement against phi'.

Both parts are reported.  Everything is computed from the nested form, so the
result is bit-identical across rearrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import stepfn
from .errors import ZeroFunction
from .shapes import ShapeFunction
from .stepfn import StepFunction

__all__ = ["LorentzNorm", "lorentz_norm", "fundamental", "fact_bound"]


@dataclass(frozen=True)
class LorentzNorm:
    """Value of the functional with its jump/integral split."""

    value: float
    jump_part: float
    integral_part: float


def lorentz_norm(f: StepFunction, phi: ShapeFunction) -> LorentzNorm:
    """Layer-cake sum sum_k levels[k] * phi(measures[k]) over |f|."""
    if not any(f.values):
        return LorentzNorm(0.0, 0.0, 0.0)
    nf = stepfn.nested_form(stepfn.abs_(f))
    value = cake_sum(nf, phi)
    jump = nf.heights[0] * phi.zero_limit()
    return LorentzNorm(value=value, jump_part=jump, integral_part=value - jump)


def cake_sum(nf: stepfn.NestedForm, phi: ShapeFunction) -> float:
    """sum_k levels[k] * phi(measures[k]); lorentz_norm and qanorm's lower bound both use it."""
    return nonneg_fsum(b * phi.eval(float(m)) for b, m in zip(nf.levels, nf.measures))


def fundamental(phi: ShapeFunction, t) -> float:
    """Value on an indicator of measure t; coincides with lorentz_norm of one."""
    tf = float(t)
    if not 0.0 <= tf <= 1.0:
        raise ValueError("fundamental needs t in [0,1]")
    if tf == 0.0:
        return 0.0
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
