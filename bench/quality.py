"""Bound-tightness metrics over fixed corpora.

Tightness is part of a bounds engine's performance: a faster search that
returns looser bounds must show up as a regression.  Each corpus is drawn
from a fixed seed, never from the run seed, and is passed over once, so the
metrics repeat bit for bit whatever the run length or run seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import gmean
from workloads import BoundsDeep

from qaspace import qanorm, shapes, stepfn, witness

CORPUS_SEED = 7


def layer_corpus(count: int, seed: int) -> list:
    """Functions with 3 to 6 distinct positive values, some with a zero piece.

    The same draw as the test suite's `layer_corpus`, so that the local-search
    gap quoted for `layer_corpus(200, seed=7)` is the one measured here.
    """
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        k = rng.randint(3, 6)
        pool: set = set()
        while len(pool) < k:
            pool.add(rng.randint(20, 950) / 100.0)
        pool = sorted(pool)
        vals = list(pool) + [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            vals.append(0.0)
        rng.shuffle(vals)
        cuts = sorted(rng.sample(range(1, 120), len(vals) - 1))
        bps = [Fraction(0), *(Fraction(c, 120) for c in cuts), Fraction(1)]
        corpus.append(stepfn.StepFunction(tuple(bps), tuple(vals)))
    return corpus


def witness_specs() -> list:
    """A fixed grid of witness specs inside the float-depth limit."""
    phis = (shapes.qa_phi(), shapes.alpha_beta(0.7, 0.5), shapes.alpha_beta(1.0, 0.8))
    psis = (shapes.qa_psi(), shapes.psi_gamma(0.5))
    return [witness.WitnessSpec(phi=phi, psi=psi, N=n, c=c)
            for phi in phis for psi in psis for n in range(2, 11) for c in (0.5, 0.7, 0.9)]


def quality_metrics(tiny: bool = False) -> dict:
    phi, psi = shapes.qa_phi(), shapes.qa_psi()
    small_ratios, gaps = [], []
    for f in layer_corpus(20 if tiny else 200, CORPUS_SEED):
        exhaustive = qanorm.qa_upper(f, phi, psi, strategy="exhaustive")
        local = qanorm.qa_upper(f, phi, psi, strategy="local_search")
        small_ratios.append(exhaustive.upper / exhaustive.lower)
        gaps.append(local.upper / exhaustive.upper)

    # the k = 50 and k = 100 strata of bounds-deep; k = 200 would add a second per run
    deep = BoundsDeep(CORPUS_SEED, tiny=tiny)
    deep_ratios = []
    for i in range(4):
        obj, phi_d, psi_d = deep.input(i).payload
        b = qanorm.qa_bounds(stepfn.StepFunction.from_json(obj), phi_d, psi_d)
        deep_ratios.append(b.upper / b.lower)

    floors = []
    specs = witness_specs()
    for spec in specs[::9] if tiny else specs:
        w = witness.build_witness(spec)
        floors.append(witness.witness_qa_upper(w, spec.phi, spec.psi)
                      / witness.lower_bound_value(spec))

    return {
        "upper_over_lower_gmean_small": gmean(small_ratios),
        "upper_over_lower_gmean_deep": gmean(deep_ratios),
        "local_over_exhaustive_max": max(gaps),
        "upper_over_floor_gmean": gmean(floors),
    }
