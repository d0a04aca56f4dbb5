"""Extremal step functions that force the decomposition quasi-norm upward.

Starting from a measure mu_1 and a growth constant, the builder iterates

    gamma(mu_{j+1}) = (N^3 psi(N) / psi(1))^{1/c} * gamma(mu_j)

for 2N steps and attaches heights a_j = 1/(2N phi(mu_j)).  The resulting
function has Lorentz norm about 1 while its decomposition quasi-norm is at
least (2^c - 1)/8 * psi(N), so the family separates the two scales as N grows.

With stock shape families the measures fall below every representable float
within a few steps, so the sequence is built and evaluated entirely in the
log domain; materializing an actual step function is offered only for
shallow instances.  The function's layer cake is kept in logs as well
(_LogLayerTable): the Lorentz norm sums its single-layer weights, and the
upper bound runs qanorm's grouping search over it, as qa_upper does over a
step function's layer table.  The two share one table per (witness, phi),
which _LogLayerTable.from_witness keeps in a small cache, so a report that
asks for both builds the 2N layer weights once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add

from . import stepfn
from .errors import DomainError, IllegalSpec, NotInvertible, spec_number, spec_param
from .logs import LOG_ZERO, exp_or_inf, logsumexp
from .qanorm import _search
from .records import Record
from .shapes import ShapeFunction, log_gamma, log_gamma_inv

_HALVING_SLACK = 1e-9
_RESIDUAL_TOL = 1e-8
# the cap on N: `witness --N 500` takes about 0.3 s (alpha_beta(0.7, 0.75),
# qa_psi, c = 0.5), most of it the grouping search over the 2N layers, which
# grows faster than N^2
_N_CAP = 500


class WitnessSpec(Record):
    """Parameters of the extremal construction.

    c in (0,1) and p in (0,1] are the shape hypotheses' constants; mu1 is the
    starting measure (None selects it automatically as the largest probe
    point <= p/2 where gamma certifies as strictly decreasing).  N is an
    integer from 2 to 500; a larger one is refused before any work.  phi and
    psi must be shapes, c, p and mu1 finite numbers (IllegalSpec names one that is not).
    """

    phi: ShapeFunction
    psi: ShapeFunction
    N: int
    c: float
    p: float = 1.0
    mu1: float | None = None

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise IllegalSpec("N must be an integer >= 2")
        if self.N > _N_CAP:
            raise IllegalSpec(f"N is capped at {_N_CAP}, got {self.N}")
        for name, value in (("phi", self.phi), ("psi", self.psi)):
            if not isinstance(value, ShapeFunction):
                raise IllegalSpec(f"{name} must be a shape, got {value!r}")
        for name in ("c", "p") if self.mu1 is None else ("c", "p", "mu1"):
            value = spec_param("the witness spec", name, getattr(self, name), spec_number)
            object.__setattr__(self, name, value)
        if not 0.0 < self.c < 1.0:
            raise IllegalSpec("c must lie in (0,1)")
        if not 0.0 < self.p <= 1.0:
            raise IllegalSpec("p must lie in (0,1]")
        if self.mu1 is not None and not 0.0 < self.mu1 <= self.p / 2.0:
            raise IllegalSpec("mu1 must lie in (0, p/2]")
        # refuses a psi that stops short of N; N^3 psi(N) >= 8 psi(1) by (G1)
        self.psi.eval(float(self.N))

    def log_growth(self) -> float:
        """(1/c) * log(N^3 psi(N)/psi(1)), the log-gamma step per index."""
        return (
            3.0 * math.log(self.N)
            + math.log(self.psi.eval(float(self.N)))
            - math.log(self.psi.eval(1.0))
        ) / self.c


class WitnessFunction(Record):
    """The built extremal function, stored as (log mu_j, log a_j) pairs.

    log_mu decreases (each step at least halves the measure), log_a increases,
    and log_a[j] = -log(2N) - log(phi(mu_j)) exactly as stored.  The support
    sets are consecutive intervals packed from 0; their total measure is at
    most 2*mu1 <= 1, so only the measures are kept.  The three are kept as
    tuples, whatever sequences they are given as, so that a witness is a
    cache key (_LogLayerTable.from_witness).

    log_gamma holds the recurrence targets log(phi(mu_j)/mu_j).  They stay
    moderate while log_mu runs off to -1e17 and beyond, and at that depth
    log_a[j] rounds to exactly -log_mu[j], so the layer's mass
    a_j * mu_j = 1/(2N gamma(mu_j)) is recoverable only through them.
    c and p are finite numbers, read as WitnessSpec reads them (IllegalSpec
    names one that is not).
    """

    log_mu: tuple
    log_a: tuple
    log_gamma: tuple
    N: int
    c: float
    p: float

    def __post_init__(self):
        for name in ("log_mu", "log_a", "log_gamma"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("c", "p"):  # finite numbers, as WitnessSpec reads them
            value = spec_param("the witness function", name, getattr(self, name), spec_number)
            object.__setattr__(self, name, value)
        n2 = 2 * self.N
        if any(len(arr) != n2 for arr in (self.log_mu, self.log_a, self.log_gamma)):
            raise IllegalSpec("witness needs exactly 2N layers")

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}

    def to_step_function(self) -> stepfn.StepFunction:
        """Materialize as an actual step function, intervals packed from 0.

        Only possible while every mu_j and a_j fits in a float; deep
        constructions raise DomainError and must stay in the log domain.
        """
        mus = [math.exp(lm) for lm in self.log_mu]
        values = [exp_or_inf(la) for la in self.log_a]
        if min(mus) == 0.0 or math.inf in values:
            raise DomainError("witness values exceed the float range; keep it in log form")
        bps = list(accumulate(map(Fraction, mus), initial=Fraction(0)))
        if bps[-1] < 1:
            bps.append(Fraction(1))
            values.append(0.0)
        return stepfn.StepFunction(tuple(bps), tuple(values))


def _certify_gamma_decreasing(phi: ShapeFunction, log_t: float) -> bool:
    """3-point probe: gamma strictly increases as t shrinks from exp(log_t)."""
    h = math.log(2.0)
    g = [log_gamma(phi, log_t - k * h) for k in range(3)]
    return g[0] < g[1] - 1e-12 and g[1] < g[2] - 1e-12


def _resolve_log_mu1(spec: WitnessSpec) -> float:
    if spec.mu1 is not None:
        lm = math.log(spec.mu1)
        if not _certify_gamma_decreasing(spec.phi, lm):
            raise NotInvertible("gamma is not strictly decreasing at mu1")
        return lm
    half = math.log(spec.p) - math.log(2.0)
    for k in range(200):
        lm = half - k * math.log(2.0)
        if _certify_gamma_decreasing(spec.phi, lm):
            return lm
    raise NotInvertible("no probe point <= p/2 certifies gamma as decreasing")


def build_witness(spec: WitnessSpec) -> WitnessFunction:
    """Iterate the measure recurrence for 2N steps, in log-gamma coordinates.

    The growth constant stays moderate even when log mu_j reaches -1e90 or
    so, which is why the iteration lives on log gamma values and only inverts
    back per index.
    """
    phi, n2 = spec.phi, 2 * spec.N
    step = spec.log_growth()

    log_mu = [_resolve_log_mu1(spec)]
    lg1 = log_gamma(phi, log_mu[0])
    log_g = [lg1]
    for j in range(1, n2):
        target = lg1 + j * step
        lm = log_gamma_inv(phi, target, log_hi=log_mu[-1])
        if lm > log_mu[-1] - math.log(2.0) + _HALVING_SLACK:
            raise NotInvertible("measure sequence failed to halve; gamma too flat")
        residual = abs(log_gamma(phi, lm) - target) / max(1.0, abs(target))
        if residual > _RESIDUAL_TOL:
            raise NotInvertible(f"recurrence residual {residual:.3e} out of tolerance")
        log_mu.append(lm)
        log_g.append(target)

    norm = math.log(2.0 * spec.N)
    log_a = [-norm - phi.log_eval(lm) for lm in log_mu]
    if any(not b > a for a, b in zip(log_a, log_a[1:])):
        raise NotInvertible("heights failed to increase; phi not monotone on the range")
    return WitnessFunction(log_mu, log_a, log_g, spec.N, spec.c, spec.p)


class _LogLayerTable:
    """The layer cake of a built function in the log domain: the layer table
    that qanorm._search reads for it, as it reads qanorm._LayerTable for a
    step function.

    log_vals are the descending logs of the distinct values, log_rings the
    logs of the ring measures and log_masses the logs of their products,
    carried separately because at extreme depth log_vals[l] and log_rings[l]
    are rounded to exact negatives of each other and their sum no longer
    knows the product.  layer_weights[k] is weight(k, k), computed once: the
    Lorentz norm sums them and the grouping search reads them, so that the
    psi == 1 coincidence of the two is exact rather than close.
    """

    def __init__(self, log_vals, log_rings, log_masses, phi: ShapeFunction):
        self.log_vals, self.log_rings, self.log_masses = log_vals, log_rings, log_masses
        self.phi = phi
        self.layer_weights = tuple(self.weight(k, k) for k in range(len(log_vals)))

    @classmethod
    @lru_cache(maxsize=4)
    def from_witness(cls, w: WitnessFunction, phi: ShapeFunction) -> _LogLayerTable:
        """The table of the built function, of tuples, cached by (w, phi) and
        shared by its callers.  The mass of layer j is a_j * mu_j
        = 1/(2N gamma(mu_j)), formed from the stored gamma targets; summing
        the stored logs instead loses it entirely once they exceed 1e16 or so.
        """
        norm = math.log(2.0 * w.N)
        log_masses = tuple(-norm - lg for lg in reversed(w.log_gamma))
        return cls(w.log_a[::-1], w.log_mu[::-1], log_masses, phi)

    def weight(self, i: int, j: int) -> float:
        """Log cost of merging layers i..j into one piece.

        The cost linf * phi(l1/linf) is assembled as l1 * (phi/id)(l1/linf):
        the ratio's log may lose its l1 part to absorption once linf is e^1e17
        or so, but it only enters through the slowly varying per-measure cost,
        while in the direct form the same absorption corrupts the leading
        factor.
        """
        log_vals, log_rings, log_masses = self.log_vals, self.log_rings, self.log_masses
        lfloor = log_vals[j + 1] if j + 1 < len(log_vals) else LOG_ZERO
        # log(1 - floor / vals[m]) for the layers m = i..j, -0.0 on a zero
        # floor; the rings l < i sit at the height of layer i and share its damping
        damps = [math.log1p(-math.exp(lfloor - lv)) for lv in log_vals[i : j + 1]]
        # log((vals[max(l, i)] - floor) * ring_l), mass-based to survive depth
        head, ring, damp = log_masses[i], log_rings[i], damps[0]
        terms = [head + (lr - ring) + damp for lr in log_rings[:i]]
        terms += map(add, log_masses[i : j + 1], damps)
        log_l1 = logsumexp(terms)  # finite: log1p(-1.0) raises before a damp is -inf
        # log(vals[i] - floor), the group's height
        log_ratio = min(0.0, log_l1 - (log_vals[i] + damp))
        return log_l1 + self.phi.log_gamma_eval(log_ratio)


def witness_lorentz_norm(w: WitnessFunction, phi: ShapeFunction) -> float:
    """Lorentz norm of the built function: sum over layers of the level
    height times phi of the tail measure, assembled with log-sum-exp.

    Sums the single-layer weights that the log-domain grouping search reads,
    so the psi == 1 decomposition value coincides with this bit for bit; inf
    past the float range.
    """
    return exp_or_inf(logsumexp(_LogLayerTable.from_witness(w, phi).layer_weights))


def witness_qa_upper(
    w: WitnessFunction,
    phi: ShapeFunction,
    psi: ShapeFunction,
    strategy: str = "auto",
) -> float:
    """Best layer-grouping upper bound on the decomposition quasi-norm of the
    built function, computed in the log domain: qanorm's search over its
    _LogLayerTable, a grouping priced as the logsumexp of log psi(n) plus
    the log weight of its n-th group; inf past the float range, as qa_upper.
    A price whose largest term is above the bound answers that term: the
    logsumexp is never below its largest term (logs.logsumexp), so the true
    price is above the bound too."""
    table = _LogLayerTable.from_witness(w, phi)
    log_psi_at = [math.log(psi.eval(float(r + 1))) for r in range(len(table.layer_weights))]

    def price(ws, bound) -> float:
        terms = list(map(add, log_psi_at, ws))
        top = max(terms)
        return top if top > bound else logsumexp(terms)

    return exp_or_inf(_search(table, price, strategy)[0])


def lower_bound_value(spec: WitnessSpec) -> float:
    """(2^c - 1)/8 * psi(N), the proven floor under the quasi-norm of the
    witness built from the spec; 2^c - 1 is expm1(c log 2), which does not
    cancel at a small c."""
    return math.expm1(spec.c * math.log(2.0)) / 8.0 * spec.psi.eval(float(spec.N))
