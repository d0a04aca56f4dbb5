"""Parametrized concave shape functions and their calculus.

Two kinds of shapes appear throughout the toolkit:

* phi-kind: on [0,1], zero at 0.  They weigh layer measures.
* psi-kind: on [0, inf), zero at 0.  They weigh positions in a
  decomposition, evaluated at any real argument >= 0.

What every member guarantees, monotone and, for a phi, concave with phi(t)/t
non-increasing, is stated once, with its proofs, below `_TABLE`.

Families (JSON `family` tag in parentheses):

* alpha_beta(a, b): t^a * (1 + log(1/t))^b, flattened to the constant
  e^{a-b} (b/a)^b above min{1, e^{1-b/a}} so it stays non-decreasing.
* qa_phi: t * log(e/t), the a = b = 1 profile.
* psi_gamma(g): t below 1, (1 + log t)^g above.
* qa_psi: the g = 1 profile, 1 + log t above 1.
* identity, constant_one: the two degenerate ends (constant_one jumps at 0).
* piecewise: linear interpolation through concave sample points.

`log_eval` evaluates log(shape(e^x)) directly from x = log t, exact to
relative 1e-12 down to x = -1e9 and far beyond for the analytic families;
deep arguments like these arise from the extremal construction.

Each family is one entry of `_TABLE` (default domain, parameters and their
JSON keys, validation, formulas, and the closed-form inverse of log(phi(t)/t));
adding a family means adding one entry.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import Callable, NamedTuple

from .errors import (
    DomainError,
    EmptyInput,
    IllegalSpec,
    NotInvertible,
    SpecParseError,
    _number,
    spec_kind,
    spec_number,
    spec_pairs,
    spec_param,
    spec_read,
)
from .records import Record


class ShapeFunction(Record):
    """One member of a shape family; immutable and hashable.

    Only the parameters that the family's `_TABLE` entry lists may be set, each
    of the type its JSON reader takes (IllegalSpec names one that is not), and
    domain_kind defaults to the family's own, as in its JSON form.
    eval(t), log_eval(log_t) = log(self(e^log_t)) and log_gamma_eval(log_t) =
    log(self(t)/t) are bound to the member's constants when it is built, each
    behind the one domain guard (DomainError for NaN, a negative or infinite t,
    and t > 1 or log t > 0 on a phi; a ValueError for a t or log t that is text
    or a bool), and so is the private closed-form inverse behind the module's
    `log_gamma_inv`, which alone checks the target against hi and clamps to it.
    log_gamma_eval is formed per family: log_eval(log_t) - log_t cancels to
    zero once |log_t| dwarfs the ratio's log.
    The member's growth facts (G3) and (G4), stated below `_TABLE`, are bound
    beside them for `check_assumptions`: _ratio_exponent(p) = c(p), and
    _square_constant = K, None where psi(n^2) leaves the domain.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    exponent: float | None = None
    points: tuple | None = None
    domain_kind: str | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _TABLE:
            raise IllegalSpec(f"unknown family {self.family!r}")
        if self.domain_kind is None:
            object.__setattr__(self, "domain_kind", _TABLE[self.family].kind)
        if self.domain_kind not in ("phi", "psi"):
            raise IllegalSpec("domain_kind must be 'phi' or 'psi'")
        if stray := [name for name in _UNREAD[self.family] if getattr(self, name) is not None]:
            raise IllegalSpec(f"the {self.family} family takes no {' or '.join(stray)}")
        owner = f"the {self.family} family"
        for name, _, read in _TABLE[self.family].params:
            if (value := getattr(self, name)) is not None:  # its reader checks it, makes floats
                object.__setattr__(self, name, spec_param(owner, name, value, read))
        # the one domain guard, around formulas that trust their argument
        formula, log_eval, log_gamma_eval, inverse, c_of_p, k = _TABLE[self.family].build(self)
        log_hi = 0.0 if self.domain_kind == "phi" else math.inf
        object.__setattr__(self, "eval", _on_domain(formula, log_hi))
        object.__setattr__(self, "log_eval", _log_domain(log_eval, log_hi))
        object.__setattr__(self, "log_gamma_eval", _log_domain(log_gamma_eval, log_hi))
        object.__setattr__(self, "_log_gamma_inv", inverse)
        object.__setattr__(self, "_ratio_exponent", c_of_p)
        object.__setattr__(self, "_square_constant", k if self.domain_kind == "psi" else None)

    def __call__(self, t: float) -> float:
        return self.eval(t)

    def zero_limit(self) -> float:
        """Limit from the right at 0 (nonzero only for constant_one)."""
        return _TABLE[self.family].zero_limit

    def to_json(self) -> dict:
        return shape_to_json(self)


def _on_domain(formula, log_hi: float):
    """eval from the formula for t > 0: 0 at 0, DomainError off [0, e^log_hi],
    ValueError for text or a bool (_number).  A float in (0, t_end), t_end the
    float after e^log_hi (inf for a psi), passes in one comparison."""
    t_end = math.nextafter(math.exp(log_hi), math.inf)

    def eval_(t):
        if type(t) is not float:
            t = float(_number(t, "t"))
        if 0.0 < t < t_end:
            return formula(t)
        if t == 0.0:
            return 0.0
        if t < 0 or not math.isfinite(t):
            raise DomainError(f"argument {t!r} outside domain")
        raise DomainError(f"phi-kind shapes live on [0,1], got {t!r}")

    return eval_


def _log_domain(formula, log_hi: float):
    """The formula of log t, refusing NaN and log t > log_hi, and text or a
    bool with _number's ValueError (a float pays one comparison for it)."""
    def checked(log_t):
        if type(log_t) is not float:
            _number(log_t, "log_t")
        if log_t <= log_hi:
            return formula(log_t)
        raise DomainError("phi-kind shapes live on [0,1]" if log_t > log_hi
                          else "argument nan outside domain")
    return checked


_LOG_T_MIN = -sys.float_info.max  # the deepest log t a float holds
_LOG_MAX = math.log(sys.float_info.max)  # expm1 of anything above overflows


def _product_error(p: float, q: float) -> float:
    """p * q minus its rounded product, exactly (Dekker's two-product, Numer.
    Math. 18, 1971); 0.0 once |p| or |q| reaches 1e300, where splitting overflows."""
    if not max(abs(p), abs(q)) < 1e300:
        return 0.0
    sp, sq = 134217729.0 * p, 134217729.0 * q  # 2^27 + 1: split off the high 26 bits
    ph, qh = sp - (sp - p), sq - (sq - q)
    pl, ql = p - ph, q - qh
    return ((ph * qh - p * q) + ph * ql + pl * qh) + pl * ql


def _flat(target, hi):
    """The inverse where the ratio is constant on every log t <= hi."""
    raise NotInvertible(f"shape(t)/t is constant below log t = {hi!r}, so it has no inverse")


def _beyond_float_range(target: float, edge: float) -> NotInvertible:
    return NotInvertible(
        f"target {target!r} beyond the largest invertible target {edge!r}"
        f" (log gamma at log t = {_LOG_T_MIN!r})"
    )


def _alpha_beta(a, b) -> tuple:
    if a is None or b is None or not (0 < a <= 1) or not (0 <= b <= 1):
        raise IllegalSpec("alpha_beta needs alpha in (0,1], beta in [0,1]")
    if b / a == math.inf:  # top and log_top would be inf, and phi inf everywhere
        raise IllegalSpec(f"alpha_beta({a!r}, {b!r}) has beta/alpha above the largest float")
    am1 = a - 1.0
    # with b = 0 the formula increases everywhere and never flattens
    flat = top = log_top = math.inf
    g_flat = -math.inf  # log gamma at the flat point
    if b:
        flat = 1.0 - b / a
        top = math.exp(a - b) * (b / a) ** b
        log_top = (a - b) + b * math.log(b / a)
        g_flat = log_top - flat

    def formula(t):
        lt = math.log(t)
        if lt >= flat:
            return top
        return t**a * (1.0 - lt) ** b

    def log_eval(log_t):
        if log_t >= flat:
            return log_top
        out = a * log_t
        if b and out > -math.inf:  # at log t = -inf, -inf + inf is nan
            out += b * math.log(1.0 - log_t)
        return out

    def log_gamma_eval(log_t):
        if b and log_t >= flat:  # b = 0 never flattens: at +inf, inf - inf is nan
            return log_top - log_t
        out = am1 * log_t if am1 else 0.0  # at a = 1, 0 * -inf is nan
        if b:
            out += b * math.log(1.0 - log_t)
        return out

    edge = log_gamma_eval(_LOG_T_MIN)
    c = (1.0 - a) / b if b else 0.0
    log_c = math.log(c) if c else 0.0

    def log_gamma_inv(target, _hi):
        if target <= g_flat:  # past the flat point gamma = top / t
            return log_top - target
        if target > edge:
            raise _beyond_float_range(target, edge)
        if not am1:  # b log(1 - x) = target; target / b rounds off |target / b| / 2
            # ulp of x, so the quotient's exact remainder r enters as e^r = 1 + r
            q = min(target / b, _LOG_MAX)
            x = -math.expm1(q)
            r = (target - q * b - _product_error(q, b)) / b
            return max(x - (1.0 - x) * r, _LOG_T_MIN)
        if not b:
            return max(target / am1, _LOG_T_MIN)
        # with u = 1 - x, c u + log u = y; w = c u solves w + log w = log c + y
        # (Lambert W), by Newton's method from below, where w + log w is concave
        z = log_c + (target + 1.0 - a) / b
        if z == math.inf:  # y overflows; the log term is negligible there
            x = target / am1
        else:
            w = z - math.log(z) if z > 1.0 else math.exp(z - 1.0)
            while (nxt := w - (w + math.log(w) - z) / (1.0 + 1.0 / w)) > w:
                w = nxt
            x = max(1.0 - w / c, _LOG_T_MIN)
        # 1 - w/c cancels near x = 0: one Newton step in x, with log1p and the
        # exact rounding error of am1 * x in its residual, restores it
        residual = am1 * x - target + _product_error(am1, x) + b * math.log1p(-x)
        x -= residual / (am1 - b / (1.0 - x))
        return max(x, _LOG_T_MIN)

    return (formula, log_eval, log_gamma_eval, log_gamma_inv if am1 or b else _flat,
            lambda p: max(0.0, a - b / (1.0 - math.log(p))),
            formula(4.0) / formula(2.0) if b else math.inf)


def _psi_gamma(g) -> tuple:
    if g is None or not (0 <= g <= 1):
        raise IllegalSpec("psi_gamma needs exponent in [0,1]")
    formula = lambda t: t if t < 1.0 else (1.0 + math.log(t)) ** g  # noqa: E731
    log_eval = lambda x: x if x < 0.0 else (g * math.log1p(x) if g else 0.0)  # noqa: E731

    def log_gamma_inv(target, hi):
        # the ratio is 1 up to t = 1, then falls: log gamma = g log1p(x) - x
        if target > 0.0:
            raise NotInvertible(f"target {target!r} above 0.0, the largest log gamma")
        if not target:
            return 0.0 if hi > 0.0 else _flat(target, hi)
        if not g:
            return -target
        # x - g log1p(x) + target is convex and increasing for x > 0, so after
        # one Newton step the iterates fall to the root.  The start solves the
        # quadratic (1 - g/2) x^2 + (1 - g + target) x + target = 0 that lies
        # below it (log1p(x) <= x (2 + x) / (2 + 2x)); -target if that overflows
        p = 1.0 - g + target
        d = math.hypot(p, 2.0 * math.sqrt((0.5 * g - 1.0) * target))
        x = -2.0 * target / (p + d) if p >= 0.0 else (d - p) / (2.0 - g)
        step = lambda x: x - (x - g * math.log1p(x) + target) / (((1.0 - g) + x) / (1.0 + x))  # noqa: E731
        x = step(x if x < math.inf else -target)
        while (nxt := step(x)) < x:
            x = nxt
        return x

    # log gamma is g log1p(x) - x above 1; at x = inf that is inf - inf, so take its limit
    log_gamma_eval = lambda x: 0.0 if x < 0.0 else -math.inf if x == math.inf else log_eval(x) - x  # noqa: E731
    return formula, log_eval, log_gamma_eval, log_gamma_inv, lambda p: 1.0, 2.0**g


def _piecewise(shape: ShapeFunction) -> tuple:
    if not shape.points:
        raise IllegalSpec("piecewise needs sample points")
    pts = shape.points
    if pts[0] != (0.0, 0.0):
        raise IllegalSpec("piecewise samples must start at (0, 0)")
    if len(pts) < 2:
        raise IllegalSpec("piecewise needs a sample after (0, 0)")
    ts = [t for t, _ in pts]
    ys = [y for _, y in pts]
    if any(not tb > ta for ta, tb in zip(ts, ts[1:])):
        raise IllegalSpec("piecewise sample abscissae must strictly increase")
    if any(y < 0 for y in ys):
        raise IllegalSpec("piecewise samples must be non-negative")
    if any(yb < ya for ya, yb in zip(ys, ys[1:])):
        raise IllegalSpec("piecewise samples must be non-decreasing")
    if not is_concave(pts):
        raise IllegalSpec("piecewise samples must be concave")
    if shape.domain_kind == "phi" and ts[-1] > 1.0:
        raise IllegalSpec("phi-kind piecewise samples must stay within [0,1]")
    if any(y <= 0 for y in ys[1:]):  # with the checks above, one zero makes the shape 0
        raise IllegalSpec("piecewise samples after (0, 0) must be positive")
    for t, y in pts[1:]:  # gamma's log is taken at every sample
        if not y / t:
            raise IllegalSpec(f"piecewise sample ({t!r}, {y!r}) has y/t below the least float")
        if y / t == math.inf:
            raise IllegalSpec(f"piecewise sample ({t!r}, {y!r}) has y/t above the largest float")
    # below the first positive sample the shape is the chord from the origin,
    # so gamma is y1/t1 there, down to t = 0
    log_first = math.log(ts[1])
    log_first_gamma = math.log(ys[1] / ts[1])
    log_last = math.log(ts[-1])

    def formula(t):
        if t > ts[-1]:
            raise DomainError(f"piecewise shape sampled only up to {ts[-1]}, got {t!r}")
        i = bisect_right(ts, t) - 1
        if i == len(ts) - 1:
            return ys[-1]
        (t0, y0), (t1, y1) = pts[i], pts[i + 1]
        return y0 + (y1 - y0) * (t - t0) / (t1 - t0)

    def log_eval(log_t):
        if log_t < log_first:
            return log_t + log_first_gamma
        if log_t <= log_last:  # exp of the last sample's log can round one ulp past it
            return math.log(formula(min(math.exp(log_t), ts[-1])))
        # past the float range t is past every sample: formula refuses it as inf
        return math.log(formula(math.exp(log_t) if log_t <= _LOG_MAX else math.inf))

    def log_gamma_eval(log_t):
        return log_first_gamma if log_t < log_first else log_eval(log_t) - log_t

    # gamma = s + c/t on a segment of slope s and intercept c; concavity makes c
    # grow along the samples, so gamma is flat where c = 0 (from the origin
    # out) and strictly decreasing after.  Each segment is anchored at its
    # point nearest t = 1, so that its answers near log t = 0 do not cancel.
    ratios = [-math.log(y / t) for t, y in pts[1:]]  # non-decreasing
    anchors = []
    elasticities = []  # (t_k, s t_k / y_k): (G3)'s least elasticity on the chord leaving t_k
    for (ta, ya), (tb, yb) in zip(pts[1:], pts[2:]):
        s = (yb - ya) / (tb - ta)
        c = ya - s * ta
        tk, yk = (tb, yb) if tb <= 1.0 else (ta, ya) if ta >= 1.0 else (1.0, ya + s * (1.0 - ta))
        anchors.append((math.log(tk), math.log(yk / tk), yk / c) if c > 0 else None)
        elasticities.append((ta, s * ta / ya))

    def log_gamma_inv(target, hi):
        m = bisect_right(ratios, -target)  # samples 1..m have log gamma >= target
        if not m:
            raise NotInvertible(f"target {target!r} above {-ratios[0]!r}, the largest log gamma")
        # m == len(ratios) only where log gamma at hi rounds below the last sample's
        if m == len(ratios) or -ratios[m - 1] == target:
            x = math.log(pts[m][0])  # gamma is flat before sample m if m is on the first chord
            return _flat(target, hi) if ratios[0] == ratios[m - 1] and x >= hi else x
        if anchors[m - 1] is None:  # samples collinear with the origin up to rounding
            raise NotInvertible("shape(t)/t is not strictly decreasing between the samples")
        # t = c / (e^target - s), written about the anchor (log t_k, log gamma_k, y_k / c)
        log_tk, g_k, q = anchors[m - 1]
        d = target - g_k
        if d <= _LOG_MAX and (eq := math.expm1(d) * q) < math.inf:
            return log_tk - math.log1p(eq)
        # expm1(d) q past the float range: its log1p is d + log q + log1p((1/q - 1) e^-d)
        return log_tk - (d + math.log(q) + math.log1p((1.0 / q - 1.0) * math.exp(-d)))

    def ratio_exponent(p):
        formula(p)  # refuses a p past the last sample
        return min([1.0, *(e for t, e in elasticities if t < p)])

    # psi(n^2) leaves the samples for a large n, so the shape has no K
    return formula, log_eval, log_gamma_eval, log_gamma_inv, ratio_exponent, None


def _constant_one_inv(target, _hi):
    if target > sys.float_info.max:
        raise _beyond_float_range(target, sys.float_info.max)
    return -target


class _Family(NamedTuple):
    """A family's row: build checks the shape's parameters and returns its raw
    formulas, which trust their argument; ShapeFunction guards the domain."""
    kind: str  # the default domain kind
    params: tuple  # (ShapeFunction field, JSON key, reader of the JSON value)
    build: Callable  # shape -> (eval for t > 0, log_eval, log_gamma_eval, _log_gamma_inv, c(p), K)
    zero_limit: float = 0.0  # the limit at 0 from the right


_TABLE = {
    "alpha_beta": _Family(
        "phi", (("alpha", "alpha", spec_number), ("beta", "beta", spec_number)),
        lambda s: _alpha_beta(s.alpha, s.beta)),
    "qa_phi": _Family("phi", (), lambda s: _alpha_beta(1.0, 1.0)),
    "psi_gamma": _Family(
        "psi", (("exponent", "gamma", spec_number),), lambda s: _psi_gamma(s.exponent)),
    "qa_psi": _Family("psi", (), lambda s: _psi_gamma(1.0)),
    "identity": _Family("phi", (), lambda s: (
        lambda t: t, lambda x: x, lambda x: 0.0, _flat, lambda p: 1.0, math.inf)),
    "constant_one": _Family("phi", (), lambda s: (
        lambda t: 1.0, lambda x: 0.0, lambda x: -x, _constant_one_inv, lambda p: 0.0, 1.0), 1.0),
    "piecewise": _Family("phi", (("points", "points", spec_pairs),), _piecewise),
}
"""The shape guarantees, stated once for every member of every family.

(G1) Every member is nondecreasing on its domain.
(G2) Every phi-kind member is concave on (0, 1], with phi(t)/t nonincreasing.

The ratio follows from concavity: with phi(0+) >= 0, the chord from (0,
phi(0+)) gives phi(s) >= (s/t) phi(t) for s < t.  Per family:
- alpha_beta(a, b): with L = 1 - log t, phi' = t^(a-1) L^(b-1) (aL - b) >= 0
  for L >= b/a, and phi'' = t^(a-2) L^(b-2) Q(L), Q(L) = a(a-1)L^2 +
  b(1-2a)L - b(1-b) <= Q(b/a) = -b <= 0 there (Q is concave, Q'(b/a) = -b);
  above t = e^(1-b/a), where L < b/a, it is its constant top.  qa_phi is (1, 1).
- psi_gamma(g): t up to 1, then (1 + log t)^g, continuous at 1 and increasing
  for g >= 0; as a phi it is t.  qa_psi is g = 1.
- identity: t.  constant_one: 0 at 0, then 1.
- piecewise: chords through samples that _piecewise has checked start at
  (0, 0), do not decrease, and are concave (is_concave, to _SAMPLE_TOL).
No family lacks a guarantee, so _Family carries no flag for one.  The qanorm
bounds rest on these facts; tests/test_shapes.py TestGuarantees checks them
for every family.

The paper's two growth conditions are facts of the same kind, in closed form:
(G3) c(p), the largest c with phi(t)/t^c nondecreasing on (0, p], is the least
  elasticity t phi'(t)/phi(t) on (0, p] (from the right at a kink), since
  log(phi(t)/t^c) has derivative (elasticity - c)/t.
  - alpha_beta(a, b): the elasticity a - b/(1 - log t) falls in t up to the
    flat point and is 0 past it: c(p) = max(0, a - b/(1 - log p)).  qa_phi is (1, 1).
  - psi_gamma, qa_psi and identity are t on (0, 1]: c(p) = 1.  constant_one: 0.
  - piecewise: on a chord y = y_k + s_k (t - t_k) the elasticity s_k t/y rises
    in t, as the chord's intercept is >= 0 (concavity from (0, 0)); it is 1 on
    the chord from the origin.  So c(p) = min(1, s_k t_k/y_k over the samples
    0 < t_k < p), and a p past the last sample is refused (DomainError).
(G4) K = sup over n >= 1 of psi(n^2)/psi(n), for a psi-kind member:
  - psi_gamma(g): 1 at n = 1, then ((1 + 2 log n)/(1 + log n))^g, which rises
    to 2^g and never reaches it.  qa_psi: 2.
  - alpha_beta(a, b), b > 0: constant from e^(1 - b/a) < 3 on, so the ratio is
    1 at n = 1 and from n = 3 on, and K = psi(4)/psi(2).  With b = 0 it is
    n^a, unbounded (inf), as identity's n is.  constant_one: 1.
  - piecewise ends at its last sample, and a phi-kind member at 1, so psi(n^2)
    leaves the domain: no K (None).
Both are these formulas evaluated in floats, so a candidate c within rounding
of c(p) may fall on either side; tests/test_shapes.py TestGrowthFacts checks
them against a float scan and 60-digit mpmath.
"""
# the JSON keys of each family: its parameters, and an optional domain
_KEYS = {
    name: (tuple(key for _, key, _ in fam.params), ("domain",)) for name, fam in _TABLE.items()
}
# the parameter fields that each family leaves unset: those only other families read
_UNREAD = {name: sorted({field for fam in _TABLE.values() for field, _, _ in fam.params}
                        - {field for field, _, _ in own.params}) for name, own in _TABLE.items()}


def alpha_beta(alpha: float, beta: float) -> ShapeFunction:
    return ShapeFunction("alpha_beta", alpha=alpha, beta=beta)


def psi_gamma(exponent: float) -> ShapeFunction:
    return ShapeFunction("psi_gamma", exponent=exponent)


def qa_phi() -> ShapeFunction:
    return ShapeFunction("qa_phi")


def qa_psi() -> ShapeFunction:
    return ShapeFunction("qa_psi")


def identity(kind: str = "phi") -> ShapeFunction:
    return ShapeFunction("identity", domain_kind=kind)


def constant_one(kind: str = "phi") -> ShapeFunction:
    return ShapeFunction("constant_one", domain_kind=kind)


def piecewise(points, kind: str = "phi") -> ShapeFunction:
    return ShapeFunction("piecewise", points=tuple(points), domain_kind=kind)


def gamma(shape: ShapeFunction, t: float) -> float:
    """shape(t)/t, the per-measure cost of an indicator of measure t; text or
    a bool is a ValueError."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if not 0 < t <= 1:
        raise DomainError("gamma needs t in (0, 1]")
    return shape.eval(t) / t


def log_gamma(shape: ShapeFunction, log_t: float) -> float:
    return shape.log_gamma_eval(log_t)


def log_gamma_inv(shape: ShapeFunction, target: float, log_hi: float = 0.0) -> float:
    """The x <= log_hi where log_gamma(shape, x) meets target: log_hi itself
    at target == log_gamma(shape, log_hi), else the exact inverse, the largest
    such x in reals, to within rounding.

    No float need hit the target: past 1e299 most targets of an alpha_beta
    fall between the log gammas of two adjacent floats.  Every family inverts
    its ratio in closed form (bound when the shape is built); alpha_beta with
    0 < a < 1 and b > 0 solves a Lambert-W equation by Newton's method and
    psi_gamma used as a psi solves g log1p(x) - x = target the same way.  For
    qa_phi, alpha_beta, constant_one and piecewise phis the answer is within
    4 ulp of the exact inverse of log_gamma_eval's formulas
    (tests/test_shapes.py checks it against a 60-digit oracle for targets
    from 1e-12 to 709.5, and for alpha_beta from 1e299 to the float range).

    NotInvertible: target below log_gamma(shape, log_hi), or above every value
    of the ratio's log; a ratio constant on the whole domain (identity,
    alpha_beta(1, 0), psi_gamma as a phi); or an answer below the most negative
    float, where the message names the largest invertible target.
    DomainError: a NaN target.  ValueError: a target that is text or a bool.
    """
    if type(target) is not float:
        _number(target, "target")
    if target != target:
        raise DomainError("argument nan outside domain")
    g_hi = shape.log_gamma_eval(log_hi)
    if not target >= g_hi:
        raise NotInvertible(f"target {target!r} below attainable minimum {g_hi!r}")
    x = shape._log_gamma_inv(target, log_hi)
    return log_hi if target == g_hi else min(x, log_hi)


def gamma_inv(shape: ShapeFunction, y: float) -> float:
    """Inverse of t -> shape(t)/t on (0, 1]; text or a bool is a ValueError."""
    if type(y) is not float:
        y = float(_number(y, "y"))
    if y <= 0 or not math.isfinite(y):
        raise DomainError("gamma_inv needs a finite positive target")
    return math.exp(log_gamma_inv(shape, math.log(y)))


def least_concave_majorant(samples) -> ShapeFunction:
    """Smallest concave function above the samples, as a piecewise shape.

    Samples must start at (0, 0) with strictly increasing abscissae in [0,1].
    The result is the upper convex hull, so it touches the samples and is
    linear in between.
    """
    pts = [(float(_number(t, "samples")), float(_number(y, "samples"))) for t, y in samples]
    if not pts:
        raise EmptyInput("no samples")
    if pts[0] != (0.0, 0.0):
        raise IllegalSpec("samples must start at (0, 0)")
    ts = [t for t, _ in pts]
    if any(not b > a for a, b in zip(ts, ts[1:])) or ts[-1] > 1.0:
        raise IllegalSpec("sample abscissae must strictly increase within [0,1]")
    if any(y < 0 for _, y in pts):
        raise IllegalSpec("samples must be non-negative")
    hull: list = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross >= 0:  # middle point at or below the chord
                hull.pop()
            else:
                break
        hull.append(p)
    return piecewise(tuple(hull))


_SAMPLE_TOL = 1e-12  # is_concave's and is_quasiconcave's relative slack


def is_concave(samples) -> bool:
    """Finite check: chord slopes non-increasing left to right, to _SAMPLE_TOL.
    Each comparison must hold, and the first is with inf, so a NaN sample fails."""
    pts = [(float(_number(t, "samples")), float(_number(y, "samples"))) for t, y in samples]
    slopes = [
        (y1 - y0) / (t1 - t0) for (t0, y0), (t1, y1) in zip(pts, pts[1:])
    ]
    for s0, s1 in zip([math.inf, *slopes], slopes):
        if not s1 <= s0 + _SAMPLE_TOL * max(1.0, abs(s0)):
            return False
    return True


def is_quasiconcave(samples) -> bool:
    """Finite check: zero at 0, positive after, non-decreasing, y/t
    non-increasing, each to _SAMPLE_TOL.  As in is_concave, a NaN sample fails."""
    pts = [(float(_number(t, "samples")), float(_number(y, "samples"))) for t, y in samples]
    ratios = []
    for t, y in pts:
        if t == 0.0:
            if y != 0.0:
                return False
            continue
        if not y > 0:
            return False
        ratios.append(y / t)
    ys = [y for _, y in pts]
    for y0, y1 in zip(ys, ys[1:]):
        if not y1 >= y0 - _SAMPLE_TOL * max(1.0, abs(y0)):
            return False
    for r0, r1 in zip([math.inf, *ratios], ratios):
        if not r1 <= r0 * (1.0 + _SAMPLE_TOL):
            return False
    return True


class AssumptionReport(Record):
    """The paper's two growth conditions for a (phi, psi) pair, as facts.

    c, p: the best candidate pair with phi(t)/t^c nondecreasing on (0, p],
    that is with c <= c(p) of (G3) below `_TABLE`; phi_ratio_monotone says
    whether any candidate pair holds (if none, c and p are the largest ones).
    psi_square_constant: K = sup over n >= 1 of psi(n^2)/psi(n), (G4), inf
    when psi(n^2)/psi(n) is unbounded, and psi_square_bounded says K < inf.
    """

    c: float
    p: float
    phi_ratio_monotone: bool
    psi_square_constant: float
    psi_square_bounded: bool


def check_assumptions(phi: ShapeFunction, psi: ShapeFunction, c_candidates, p_candidates
                      ) -> AssumptionReport:
    """The best candidate pair (c, p) for phi's growth condition, and psi's K.

    Both answers come from the families' closed forms, (G3) and (G4) below
    `_TABLE`, evaluated in floats; nothing is sampled.  The best pair
    maximizes c, then p, among the candidate pairs with c <= c(p).  That phi
    is concave and phi and psi are monotone is (G1) and (G2), which hold for
    every shape by construction.

    ValueError: no candidate for c or p, or a c outside (0, 1) or p outside (0, 1].
    DomainError: a piecewise phi sampled short of a candidate p, or a psi
    whose domain ends (a piecewise or phi-kind one), which has no K.
    """
    cs = sorted({float(_number(c, "c_candidates")) for c in c_candidates}, reverse=True)
    ps = sorted({float(_number(p, "p_candidates")) for p in p_candidates}, reverse=True)
    if not cs or not ps:
        raise ValueError("need at least one candidate for c and for p")
    if any(not 0 < c < 1 for c in cs) or any(not 0 < p <= 1 for p in ps):
        raise ValueError("candidates need c in (0,1), p in (0,1]")
    c_at = [phi._ratio_exponent(p) for p in ps]
    best = next(((c, p) for c in cs for p, c_p in zip(ps, c_at) if c <= c_p), None)
    if (k := psi._square_constant) is None:
        raise DomainError(f"the {psi.domain_kind}-kind {psi.family} shape ends before"
                          " some n^2, so psi(n^2)/psi(n) is not defined for every n")
    c, p = best or (cs[0], ps[0])
    return AssumptionReport(c=c, p=p, phi_ratio_monotone=best is not None,
                            psi_square_constant=k, psi_square_bounded=k < math.inf)


def parse_shape(obj, expected_kind: str | None = None) -> ShapeFunction:
    """Build a ShapeFunction from its JSON object form.

    expected_kind ('phi' or 'psi') fixes the domain for the families that can
    serve as either; a conflicting explicit "domain" key is rejected.
    """
    family = spec_kind(obj, "shape", "family", _KEYS)
    entry = _TABLE[family]
    kind = obj.get("domain", expected_kind or entry.kind)
    if expected_kind and kind != expected_kind:
        raise SpecParseError(f"{kind!r} conflicts with the expected {expected_kind!r}", "domain")
    values = {field: spec_read(obj, key, read) for field, key, read in entry.params}
    try:
        return ShapeFunction(family, domain_kind=kind, **values)
    except (IllegalSpec, ValueError, OverflowError) as exc:
        raise SpecParseError(f"bad {family} spec: {exc}") from exc


def shape_to_json(shape: ShapeFunction) -> dict:
    entry = _TABLE[shape.family]
    out: dict = {"family": shape.family}
    for field, key, _ in entry.params:
        value = getattr(shape, field)
        out[key] = [list(p) for p in value] if isinstance(value, tuple) else value
    if shape.domain_kind != entry.kind:
        out["domain"] = shape.domain_kind
    return out
