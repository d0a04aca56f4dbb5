"""The seeded step-function corpora that the sweeps share.

Standard library and qaspace only, so tools outside the test suite (such as
tools/answers_digest.py) can draw the same inputs.
"""

import math
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


def deep_corpus(count=20, seed=5):
    """Functions with 50 to 200 distinct magnitudes, for the long searches.

    Even entries spread their magnitudes over one decade, odd ones over
    10^-15 to 10^15; every function repeats half as many magnitudes again,
    has a zero piece, and random signs.  Breakpoints lie on the 2^-20 grid.
    """
    rng = random.Random(seed)
    den = 1 << 20
    corpus = []
    for idx in range(count):
        k = rng.randint(50, 200)
        lo, hi = (0.0, 1.0) if idx % 2 == 0 else (-15.0, 15.0)
        pool = set()
        while len(pool) < k:
            pool.add(10.0 ** rng.uniform(lo, hi))
        pool = sorted(pool)
        vals = [*pool, *(rng.choice(pool) for _ in range(k // 2)), 0.0]
        vals = [-v if rng.random() < 0.5 else v for v in vals]
        rng.shuffle(vals)
        cuts = sorted(rng.sample(range(1, den), len(vals) - 1))
        bps = [Fraction(0), *(Fraction(c, den) for c in cuts), Fraction(1)]
        corpus.append(StepFunction(tuple(bps), tuple(vals)))
    return corpus


def all_groups(n):
    """Every group (i, j) of n layers, i <= j."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def group_sample(n, count=200, seed=0):
    """Groups (i, j) of n layers: every (0, j), which the long searches price
    most, then count seeded random ones."""
    rng = random.Random(seed)
    groups = [(0, j) for j in range(n)]
    for _ in range(count):
        i = rng.randrange(n)
        groups.append((i, rng.randrange(i, n)))
    return groups


_MAX = 1.7976931348623157e308

# value sets at the float edges of a group weight: heights above max/2 (so
# twice the floor overflows), subnormal heights, heights exactly twice a
# lower one, and lone heights whose only floor is 0
FLOAT_EDGE_VALUES = (
    (_MAX, 1.5e308, 1e308, 9e307, _MAX / 2, 3.0, 1.0 + 2**-52),
    (1e-300, 2.2250738585072014e-308, 1e-310, 3e-322, 1.5e-323, 5e-324),
    (4.0, 3.0, 2.0000000000000004, 2.0, 1.0 + 2**-52, 1.0, 0.6, 0.5, 0.3, 0.15, 0.1),
    (_MAX, 1.0, 5e-324, 0.0, -1e-310, -1.0),
    (0.7, 0.0, -0.7),
    (5e-324,),
)


def float_edge_corpus():
    """FLOAT_EDGE_VALUES on the grid k^2/m^2 (m pieces), so that the ring
    measures differ and have a non-dyadic denominator."""
    corpus = []
    for vals in FLOAT_EDGE_VALUES:
        m = len(vals)
        bps = tuple(Fraction(k * k, m * m) for k in range(m + 1))
        corpus.append(StepFunction(bps, vals))
    return corpus


EXTREME_VALUES = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1.7e308)


def edge_corpus(seed, value_pool=None):
    """Signed functions on non-dyadic grids: denominators 3, 7 and 999983, each x 64."""
    rng = random.Random(seed)
    return [
        random_step_function(rng, denominator=den, value_pool=value_pool, signed=True)
        for den in (3 * 64, 7 * 64, 999983 * 64)
        for _ in range(40)
    ]


def _binade(rng, count, exp):
    """count floats drawn from the binade [2^(exp+52), 2^(exp+53)), whose ulp is 2^exp."""
    return [math.ldexp(rng.randrange(1 << 52, 1 << 53), exp) for _ in range(count)]


def _on_square_grid(heights, rng):
    """The heights, each once and shuffled, on the grid k^2/m^2 (m pieces)."""
    vals = list(heights)
    rng.shuffle(vals)
    m = len(vals)
    return StepFunction(tuple(Fraction(k * k, m * m) for k in range(m + 1)), tuple(vals))


def tie_corpus(seed=17):
    """Layer tables where v - floor rounds half to even, and runs of one error.

    Each block has a floor that is an odd multiple of 2^e (a short mantissa,
    or a full one, so that 2 * floor reaches into the next binade), layers
    drawn from the binade whose ulp is 2^(e+1), where the exact v - floor lies
    half way between two floats, layers from the four binades above it, and
    layers far above, where fl(v - floor) is v and every error is -floor.
    Then a table over 32 decades and one from subnormals to 1e300.
    """
    rng = random.Random(seed)
    corpus = []
    for exps in ((0,), (-60, 10), (-1074, -1000, -900), (-52, -20, 30), (800, 880)):
        heights = set()
        for n, e in enumerate(exps):
            odd = rng.randrange(1, 1 << 20) if n % 2 == 0 else rng.randrange(1 << 51, 1 << 52)
            heights.add(math.ldexp(2 * odd + 1, e))
            heights.update(_binade(rng, 6, e + 1))
            for k in range(2, 6):
                heights.update(_binade(rng, 1, e + k))
            heights.update(_binade(rng, 3, e + rng.randint(8, 60)))
        corpus.append(_on_square_grid(heights, rng))
    wide = {10.0 ** rng.uniform(-16.0, 16.0) for _ in range(64)}
    corpus.append(_on_square_grid(wide, rng))
    tiny = {5e-324, 3e-322, 1e-310, 2.2250738585072014e-308}
    tiny.update(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(30))
    corpus.append(_on_square_grid(tiny, rng))
    return corpus


# JSON breakpoints at the float edges: the least subnormal, the float just
# below 1, and decimal fractions, whose binary expansions run to 2^-55 and beyond
JSON_EDGE_SPECS = [
    {"breakpoints": [0, 1], "values": [2]},
    {"breakpoints": [0.0, 5e-324, 1.0], "values": [1.0, 2.0]},
    {"breakpoints": [0.0, 1 - 2**-53, 1.0], "values": [3.0, -1e-300]},
    {"breakpoints": [0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3, 0.5,
                     1 - 2**-53, 1],
     "values": [1.7e308, -5e-324, 0.0, 2.5, 2.5, -1e-300, 0.1, 1e300, -0.0]},
    {"breakpoints": [0.0, 0.1, 0.2, 0.30000000000000004, 0.7, 1.0], "values": [1, -1, 1, 0, 1]},
]


def json_edge_specs(seed=19, count=60):
    """JSON_EDGE_SPECS, then seeded JSON step functions whose breakpoints are
    c / den for dens 3, 7, 999983 and 2^20, as floats."""
    rng = random.Random(seed)
    specs = list(JSON_EDGE_SPECS)
    pool = (*EXTREME_VALUES, 0.0, 0.1, 1.0, 2.5, 1e-5)
    for idx in range(count):
        den = (3, 7, 999983, 1 << 20)[idx % 4]
        m = rng.randint(1, min(den, 12))
        cuts = sorted(rng.sample(range(1, den), m - 1))
        vals = [rng.choice(pool) * rng.choice((1.0, -1.0)) for _ in range(m)]
        specs.append({"breakpoints": [0.0, *(c / den for c in cuts), 1.0], "values": vals})
    return specs
