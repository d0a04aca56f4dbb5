"""The randomized invariant suite behind `qaspace selftest`.

Each family draws its samples from one seeded rng stream, in table order, so
a seed names the whole run.
"""

from __future__ import annotations

import math
import random

from . import embeddings, lorentz, qanorm, shapes, stepfn, witness
from .shapes import log_gamma
from .stepfn import StepFunction

_PHI, _PSI, _PSI_ONE = shapes.qa_phi(), shapes.qa_psi(), shapes.constant_one("psi")


def _random_fn(rng: random.Random, signed: bool = False) -> StepFunction:
    return stepfn.random_step_function(rng, max_pieces=8, signed=signed)


def _inv_rearrangement(rng, i) -> bool:
    f = _random_fn(rng, signed=True)
    g = stepfn.rearrange(f)
    levels = sorted({abs(v) for v in f.values} | {0.0})
    mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    return (
        stepfn.l1_norm_exact(f) == stepfn.l1_norm_exact(g)
        and stepfn.linf_norm(f) == stepfn.linf_norm(g)
        and all(stepfn.distribution(f, s) == stepfn.distribution(g, s) for s in levels + mids)
        and all(a >= b for a, b in zip(g.values, g.values[1:]))
    )


def _inv_lorentz_rearranged(rng, i) -> bool:
    f = _random_fn(rng, signed=True)
    g = stepfn.rearrange(f)
    return lorentz.lorentz_norm(f, _PHI).value == lorentz.lorentz_norm(g, _PHI).value


def _inv_sandwich(rng, i) -> bool:
    f = _random_fn(rng)
    b = qanorm.qa_bounds(f, _PHI, _PSI)
    scale = _PHI.eval(1.0) * _PSI.eval(1.0)
    lo, hi = scale * stepfn.l1_norm(f), scale * stepfn.linf_norm(f)
    return lo <= b.lower * (1 + 1e-12) and b.lower <= b.upper <= hi * (1 + 1e-12)


def _inv_witness_cost(rng, i) -> bool:
    b = qanorm.qa_bounds(_random_fn(rng, signed=True), _PHI, _PSI)
    return b.upper_witness.recomputed_cost(_PHI, _PSI) == b.upper


def _inv_psi_one(rng, i) -> bool:
    f = _random_fn(rng)
    b = qanorm.qa_upper(f, _PHI, _PSI_ONE, strategy="layers")
    lam = lorentz.lorentz_norm(f, _PHI).value
    tol = 1e-9 * max(lam, b.upper, b.lower, 1e-300)
    return abs(b.upper - lam) <= tol and abs(b.lower - lam) <= tol


def _inv_quasi_triangle(rng, i) -> bool:
    f, g = _random_fn(rng, signed=True), _random_fn(rng, signed=True)
    lhs = qanorm.qa_lower(stepfn.add(f, g), _PHI, _PSI)
    rhs = qanorm.qa_bounds(f, _PHI, _PSI).upper + qanorm.qa_bounds(g, _PHI, _PSI).upper
    return not lhs > 4.0 * rhs * (1 + 1e-12)


def _inv_tau_identity(rng, i) -> bool:
    t = math.exp(rng.uniform(math.log(1e-15), 0.0))
    expected = _PHI.eval(t) * _PSI.eval(1.0 + max(0.0, log_gamma(_PHI, math.log(t))))
    return embeddings.tau(_PHI, _PSI, t) == expected


def _inv_witness_build(rng, i) -> bool:
    n = 2 + i
    norm = math.log(2.0 * n)
    spec = witness.WitnessSpec(phi=_PHI, psi=_PSI, N=n, c=0.5, p=1.0)
    w = witness.build_witness(spec)
    lor = witness.witness_lorentz_norm(w, _PHI)
    upper = witness.witness_qa_upper(w, _PHI, _PSI)
    return (
        all(b <= a - math.log(2.0) + 1e-9 for a, b in zip(w.log_mu, w.log_mu[1:]))
        and all(la == -norm - _PHI.log_eval(lm) for la, lm in zip(w.log_a, w.log_mu))
        and _PSI.eval(1.0) * lor <= upper * (1 + 1e-12)
        and upper >= witness.lower_bound_value(spec)
    )


# (name, runs, check): check(rng, i) draws sample i from rng and says whether it holds
_INVARIANTS = [
    ("rearrangement-equimeasurable", 30, _inv_rearrangement),
    ("lorentz-rearrangement-invariant", 25, _inv_lorentz_rearranged),
    ("bounds-sandwich", 25, _inv_sandwich),
    ("upper-equals-witness-cost", 20, _inv_witness_cost),
    ("psi-one-collapse", 25, _inv_psi_one),
    ("quasi-triangle", 25, _inv_quasi_triangle),
    ("tau-compositional", 40, _inv_tau_identity),
    ("witness-build", 2, _inv_witness_build),
]


def run(seed: int) -> list:
    """Each family's name, number of runs and failures, from one rng seeded with seed."""
    rng = random.Random(seed)
    return [
        {"name": name, "runs": runs, "failures": sum(not check(rng, i) for i in range(runs))}
        for name, runs, check in _INVARIANTS
    ]
