"""The two seeded step-function corpora that the sweeps share.

Standard library and qaspace only, so tools outside the test suite (such as
tools/answers_digest.py) can draw the same inputs.
"""

import random
from fractions import Fraction

from qaspace import StepFunction, random_step_function


def random_functions(seed, count, signed=False, rng_kwargs=None):
    """Seeded stream of step functions for the fixed-count sweeps."""
    rng = random.Random(seed)
    kwargs = dict(rng_kwargs or {})
    out = []
    while len(out) < count:
        f = random_step_function(rng, signed=signed, **kwargs)
        if any(v != 0.0 for v in f.values):
            out.append(f)
    return out


def layer_corpus(count=50, seed=2024):
    """Functions with 3 to 6 distinct positive values, some with a zero piece."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        k = rng.randint(3, 6)
        pool = set()
        while len(pool) < k:
            pool.add(rng.randint(20, 950) / 100.0)
        pool = sorted(pool)
        extra = rng.randint(0, 4)
        vals = list(pool) + [rng.choice(pool) for _ in range(extra)]
        if rng.random() < 0.3:
            vals.append(0.0)
        rng.shuffle(vals)
        cuts = sorted(rng.sample(range(1, 120), len(vals) - 1))
        bps = [Fraction(0), *(Fraction(c, 120) for c in cuts), Fraction(1)]
        corpus.append(StepFunction(tuple(bps), tuple(vals)))
    return corpus
