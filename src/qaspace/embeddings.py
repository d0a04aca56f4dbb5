"""Comparison profiles that decide embeddings into the decomposition space.

The central profile is

    tau(t) = phi(t) * psi(1 + max(0, log(phi(t)/t))),

the cost of covering an indicator of measure t when the slot index is priced
by psi through the log of the per-measure cost.  Membership of a Lorentz-type
space in the decomposition space reduces to comparing its shape against tau.

A decreasing sequence s gives two more profiles:

    phi_s(t)  = inf_n max{s_n, t} * (phi(s_n)/s_n) * psi(n)
    alpha_s(t) = phi(t) * psi(s_inverse(t))

which agree with tau up to constants for good sequences; the sequence
s(x) = gamma_inv(e^{x-1}) makes alpha_s and tau coincide wherever
phi(t)/t >= 1.  s_n does not increase, phi(t)/t does not increase and psi does
not decrease (the guarantees stated below shapes._TABLE), so the truncated
phi_s is in closed form: with k the first index where s_k < t, the least of
the terms before k and t * gamma(s_k) * psi(k).
`check_seq_conditions` reports grid evidence for the four conditions a
sequence must satisfy, including the empirical step-growth constant for
phi(s_n)/s_n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import pairwise
from typing import Callable, NamedTuple

from .errors import DomainError, NonPositiveValue, NotInvertible, SpecParseError
from .errors import _number, spec_kind, spec_pairs, spec_read
from .logs import LOG_ZERO, exp_or_inf
from .records import Record
from .shapes import ShapeFunction, log_gamma, parse_shape


def tau(phi: ShapeFunction, psi: ShapeFunction, t: float) -> float:
    """phi(t) * psi(1 + max(0, log(phi(t)/t))); text or a bool is a ValueError."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if not 0.0 <= t <= 1.0:
        raise DomainError("tau needs t in [0,1]")
    if t == 0.0:
        return 0.0
    # a float t in (0, 1] passes phi's guard: its formulas take t and log t directly
    value, g = phi._eval(t), phi._log_gamma_eval(math.log(t))
    x = 1.0 + g if g > 0.0 else 1.0  # 1 + max(0, g): a NaN g reads as 0, as max reads it
    # a psi-kind psi's guard passes a finite x >= 1
    return value * (psi._eval(x) if x < math.inf and psi.domain_kind == "psi" else psi.eval(x))


def log_tau(phi: ShapeFunction, psi: ShapeFunction, log_t: float) -> float:
    """log(tau(exp(log_t))), usable at depths where t itself underflows;
    -inf at log t = -inf, where tau(0) is 0, for every phi."""
    if type(log_t) is not float:
        _number(log_t, "log_t")
    if log_t > 0.0:
        raise DomainError("tau needs log_t <= 0")
    if log_t == -math.inf:  # phi's log gamma there can be inf, which psi refuses
        return -math.inf
    return phi.log_eval(log_t) + math.log(psi.eval(1.0 + max(0.0, phi.log_gamma_eval(log_t))))


class SequenceSpec(Record):
    """A decreasing sequence of measures in (0,1], evaluated on [domain_start, domain_end].

    kinds: "reciprocal" is s(x) = 1/x; "gamma_exp" is s(x) = gamma_inv(e^{x-1})
    for its phi, which it alone takes (so log(phi(s)/s) at s(x) is exactly x-1);
    "samples" interpolates its samples, (x, s) pairs.  Both ends are derived,
    and an x past either is a DomainError: domain_start is 1, max(1, 1 + log
    gamma(1)) or the first sample's x; domain_end is inf, 1 + log gamma(0+) (no
    s(x) once x - 1 passes gamma's largest log) or the last sample's x.  The
    samples need not decrease (the condition check reports that); inverse()
    needs strict decrease.  The kind is bound at construction, as a shape's
    family is: its ends and its formulas for s, log s and the inverse, so no
    method reads the kind per call.
    """

    kind: str
    phi: ShapeFunction | None = None
    samples: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SEQUENCE_KEYS:
            raise SpecParseError(f"unknown sequence kind {self.kind!r}")
        for name, owner in (("phi", "gamma_exp"), ("samples", "samples")):
            if (getattr(self, name) is None) == (self.kind == owner):
                verb = "needs" if self.kind == owner else "takes no"
                raise SpecParseError(f"a {self.kind} sequence {verb} {name}")
        # the formulas trust their argument: an x that _check_x has passed, a float t in (0, 1]
        names = ("domain_start", "domain_end", "_value_at", "_log_at", "_inverse_at")
        for name, value in zip(names, _SEQUENCE_FORMULAS[self.kind](self)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_json(cls, obj, phi: ShapeFunction | None = None) -> "SequenceSpec":
        """A sequence from its JSON object form; a gamma_exp without its own
        "phi" takes phi (on the command line, the subcommand's phi)."""
        kind = spec_kind(obj, "sequence", "kind", _SEQUENCE_KEYS)
        if kind == "samples":
            return spec_read(obj, "points", lambda points: sample_sequence(spec_pairs(points)))
        if kind == "reciprocal":
            return reciprocal()
        if "phi" in obj:
            phi = spec_read(obj, "phi", parse_shape, "phi")
        if phi is None:
            raise SpecParseError("missing from the gamma_exp sequence spec", "phi")
        return gamma_exp(phi)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.phi is not None:
            out["phi"] = self.phi.to_json()
        if self.samples is not None:
            out["points"] = [list(p) for p in self.samples]
        return out

    def _check_x(self, x: float) -> float:
        """float(x) on the domain (_x_on_domain); text or a bool is a ValueError."""
        if type(x) is not float:
            x = float(_number(x, "x"))
        start, end = self.domain_start, self.domain_end
        return x if start <= x <= end else _x_on_domain(x, start, end, self.kind)

    def value(self, x: float) -> float:
        return self._value_at(self._check_x(x))

    def log_value(self, x: float) -> float:
        return self._log_at(self._check_x(x))

    def _log_ladder(self, n_start: int, n_max: int):
        """log_value(float(n)) for the integers n from n_start, which is at
        least domain_start - 1e-12, up to n_max or domain_end, whichever comes
        first, with the domain checked once for them all; -inf (LOG_ZERO) where
        the gamma_exp inverse is NotInvertible."""
        start, end = self.domain_start, self.domain_end
        log_at = self._log_at
        for n in range(n_start, (n_max if end >= n_max else math.floor(end)) + 1):
            x = float(n)
            try:
                log_s = log_at(x if x >= start else start)  # as _check_x reads an x just below
            except NotInvertible:
                log_s = LOG_ZERO
            yield log_s

    def inverse(self, t: float) -> float:
        """x with s(x) = t; monotone inversion.  DomainError when no x in the
        domain has s(x) = t: t outside (0, 1], above the first value, or below
        the last (a sampled sequence, or a ladder whose ratio is bounded);
        ValueError for text or a bool."""
        if type(t) is not float:
            t = float(_number(t, "t"))
        if not 0.0 < t <= 1.0:
            raise DomainError("sequence values live in (0,1]")
        return self._inverse_at(t)


def _reciprocal_formulas(seq: SequenceSpec) -> tuple:
    """(domain_start, domain_end, s, log s, inverse) of 1/x."""
    return 1.0, math.inf, lambda x: 1.0 / x, lambda x: -math.log(x), lambda t: 1.0 / t


def _gamma_exp_formulas(seq: SequenceSpec) -> tuple:
    """(domain_start, domain_end, s, log s, inverse) of gamma_inv(e^{x-1}) for seq's phi."""
    phi = seq.phi
    if not isinstance(phi, ShapeFunction):
        raise SpecParseError(f"expected a shape, got {phi!r}", "phi")
    g1 = phi.log_gamma_eval(0.0)  # log gamma(1), where s is 1
    start, top = max(1.0, 1.0 + g1), phi.log_gamma_eval(-math.inf)
    # the last x with x - 1 <= top: 1 + top, rounded down if it rounded up
    end = math.nextafter(1.0 + top, 0.0) if (1.0 + top) - 1.0 > top else 1.0 + top
    log_gamma, log_gamma_inv = phi._log_gamma_eval, phi._log_gamma_inv

    def log_at(x):
        # s is 1 up to x = 1 + log gamma(1); x - 1 there can round a few
        # ulp past log gamma(1), the least target the inverse accepts
        target = g1 if x <= 1.0 + g1 else x - 1.0
        # shapes.log_gamma_inv(phi, target), whose checks pass: target is
        # no NaN and >= g1, log gamma at its log_hi 0, where it answers 0
        # only after the inverse has run (which refuses a flat phi)
        log_s = log_gamma_inv(target, 0.0)
        return 0.0 if target == g1 else min(log_s, 0.0)

    def inverse_at(t):
        x = 1.0 + log_gamma(math.log(t))  # log t <= 0 passes phi's guard
        if start <= x <= end:  # what _check_x passes unchanged
            return x
        if x < start - 1e-9:
            raise DomainError(f"{t!r} is above the sequence's first value")
        # NaN, an x within 1e-9 below the start, which reads as it, or an x
        # past a bounded ladder's end (a t below its last value has no x)
        return _x_on_domain(max(x, start), start, end, "gamma_exp")

    return start, end, lambda x: math.exp(log_at(x)), log_at, inverse_at


def _x_on_domain(x: float, start: float, end: float, kind: str) -> float:
    """The float x on a kind's domain [start, end]: an x less than 1e-12
    below start reads as it, and a DomainError refuses NaN and any other x."""
    if not x >= start - 1e-12:  # NaN too
        raise DomainError(f"sequence defined from {start}, got {x!r}")
    if x > end:
        raise DomainError(f"{kind.removesuffix('s')} sequence ends at {end}, got {x!r}")
    return max(x, start)


def _sample_formulas(seq: SequenceSpec) -> tuple:
    """(domain_start, domain_end, s, log s, inverse) interpolating seq's samples."""
    pts = spec_read({"samples": seq.samples}, "samples", spec_pairs)
    if len(pts) < 2:
        raise SpecParseError("sample sequences need at least two points")
    object.__setattr__(seq, "samples", pts)
    xs = [x for x, _ in pts]
    if any(not b > a for a, b in zip(xs, xs[1:])):
        raise SpecParseError("sample abscissae must strictly increase")
    if any(not 0.0 < s <= 1.0 for _, s in pts):
        raise SpecParseError("sample values must lie in (0,1]")
    segments = tuple(zip(pts, pts[1:]))
    ss = [s for _, s in pts]
    decreasing = all(b < a for a, b in zip(ss, ss[1:]))

    def value_at(x):
        for (x0, s0), (x1, s1) in segments:  # _check_x put x in one of them
            if x <= x1:
                # monotone in x, but it can round below the lower sample (to 0
                # beside a tiny one): it is held there, and is s1 at x1
                s = s0 + (s1 - s0) * (x - x0) / (x1 - x0)
                return s1 if x == x1 else max(s, min(s0, s1))

    def inverse_at(t):
        if not decreasing:
            raise NotInvertible("sample sequence is not strictly decreasing")
        if not ss[-1] <= t <= ss[0]:
            raise DomainError(f"{t!r} outside sampled range [{ss[-1]}, {ss[0]}]")
        for (x0, s0), (x1, s1) in segments:  # t >= ss[-1]: one of them holds t
            if t >= s1:
                return x0 + (x1 - x0) * (s0 - t) / (s0 - s1)

    return xs[0], xs[-1], value_at, lambda x: math.log(value_at(x)), inverse_at


# the JSON keys of each sequence kind besides "kind": (required, optional)
_SEQUENCE_KEYS = {"reciprocal": ((), ()), "gamma_exp": ((), ("phi",)), "samples": (("points",), ())}
# each kind's builder: the sequence -> (domain_start, domain_end, s, log s, inverse)
_SEQUENCE_FORMULAS = {"reciprocal": _reciprocal_formulas, "gamma_exp": _gamma_exp_formulas,
                      "samples": _sample_formulas}
# phi_s's cap on n_max, and check_seq_conditions' on the integers its step-ratio
# scan reads: a reciprocal term table this long takes about 3.7 s, the scan 1.6 s
_N_MAX_CAP = 1_000_000
# phi_s's n_max when none is given; the CLI echoes it
_N_MAX_DEFAULT = 10_000
# the log of the least positive float: a term table ends at the first s_n below it
_LOG_TINY = math.log(5e-324)


def reciprocal() -> SequenceSpec:
    return SequenceSpec("reciprocal")


def gamma_exp(phi: ShapeFunction) -> SequenceSpec:
    return SequenceSpec("gamma_exp", phi=phi)


def sample_sequence(pairs) -> SequenceSpec:
    return SequenceSpec("samples", samples=tuple(pairs))


class PhiSValue(NamedTuple):
    value: float
    n: int


_new_tuple = tuple.__new__  # PhiSValue's own __new__ is a Python-level call


# two tables, each up to ~260 MB: an equivalence of two phi_s expressions alternates two keys
@lru_cache(maxsize=2)
def _term_table(phi: ShapeFunction, psi: ShapeFunction, seq: SequenceSpec, n_max: int):
    """phi_s's columns for the rows n from n_start up to n_max, each filled as
    its row is built: -log s_n, for bisect; base_n = log(gamma(s_n) * psi(n));
    and head[r], the least log s_n + base_n over the first r rows with its row
    (the first on ties, and a NaN never least, as min picks them).

    The table ends at the sequence's domain_end, and at the first s_n below the
    least positive float: every float t > 0 exceeds it, and later rows have no
    smaller base.  A ladder s_n below every float keeps a -inf sentinel, as does
    one whose inverse is refused because gamma is constant (identity).  On
    phi's own ladder log(gamma(s_n)) is exactly n - 1; any other sequence is
    priced by phi's log gamma at log s_n.  A sequence whose s_n rises is
    refused.  A DomainError from psi(n) (a psi sampled only up to some x < n)
    ends the table there and is returned as its cut, else None.
    """
    n_start = max(1, math.ceil(seq.domain_start - 1e-12))
    own = seq.phi == phi  # a ladder built from phi: its log gamma(s_n) is n - 1
    # the raw formulas where the guard would pass them: phi's log gamma at log
    # s_n <= 0, and a psi-kind psi at a float n >= 1 (a phi-kind one refuses n > 1)
    log_gamma_at = phi._log_gamma_eval
    psi_at = psi._eval if psi.domain_kind == "psi" else psi.eval
    best, best_row, last = math.inf, 0, math.inf  # last: the previous row's log s_n
    neg_log_s, bases, head, cut = [], [], [(best, best_row)], None
    for n, ls in enumerate(seq._log_ladder(n_start, n_max), n_start):
        lg = n - 1.0 if own else log_gamma_at(ls)
        if ls > last:
            raise DomainError(f"phi_s needs a non-increasing sequence, but s rises at index {n}")
        last = ls
        try:
            base = lg + math.log(psi_at(float(n)))
        except DomainError as exc:
            cut = exc
            break
        if (term := ls + base) < best:  # else the earlier row stays, as on a tie (a NaN never wins)
            best, best_row = term, len(bases)
        head.append((best, best_row))
        neg_log_s.append(-ls)
        bases.append(base)
        if ls < _LOG_TINY:
            break
    return n_start, tuple(neg_log_s), tuple(bases), tuple(head), cut


# phi_s's last (phi, psi, seq, n_max, table), one tuple so that a reader sees one
# snapshot: a call on the same three objects reuses the table without hashing
# them as _term_table's key.  The n_max of None matches no call.
_last_table = (None, None, None, None, None)


def _clear_term_tables(clear=_term_table.cache_clear) -> None:
    """_term_table.cache_clear, which forgets phi_s's last table too."""
    global _last_table
    _last_table = (None, None, None, None, None)
    clear()


_term_table.cache_clear = _clear_term_tables


def phi_s(
    phi: ShapeFunction,
    psi: ShapeFunction,
    seq: SequenceSpec,
    t: float,
    n_max: int = _N_MAX_DEFAULT,
) -> PhiSValue:
    """Infimum over n <= n_max of max{s_n, t} * gamma(s_n) * psi(n), exactly.

    Returns the value and the least achieving index: one bisection finds k,
    the first index with s_k < t, and the answer is the least of the terms
    before k and t * gamma(s_k) * psi(k), past which no term is smaller.
    A psi that refuses an index is an error only when k reaches that index.
    An n_max that is not an int, or is above 1,000,000, is refused before any
    term is built, and a t that is text or a bool is a ValueError.
    """
    global _last_table
    last_phi, last_psi, last_seq, last_n_max, table = _last_table
    # the last table's n_max passed the checks below: an int equal to it needs none
    if not (last_phi is phi and last_psi is psi and last_seq is seq
            and type(n_max) is int and n_max == last_n_max):
        if not isinstance(n_max, int) or isinstance(n_max, bool):
            raise DomainError(f"n_max must be an integer, not {n_max!r}")
        if n_max > _N_MAX_CAP:
            raise DomainError(f"n_max is capped at {_N_MAX_CAP} terms")
        table = None
    if type(t) is not float:
        t = float(_number(t, "t"))
    if t == 0.0:
        return PhiSValue(0.0, 0)
    if not 0.0 < t <= 1.0:
        raise DomainError("phi_s needs t in [0,1]")
    lt = math.log(t)
    if table is None:
        table = _term_table(phi, psi, seq, n_max)  # a table that raised is not kept
        _last_table = (phi, psi, seq, n_max, table)
    n_start, neg_log_s, bases, head, cut = table
    if n_max < n_start:
        raise DomainError(f"n_max {n_max} is below the sequence's first index {n_start}")
    k = bisect_right(neg_log_s, -lt)
    if k == (rows := len(bases)) and cut is not None:
        raise cut.with_traceback(None)
    if not rows:
        raise DomainError(f"the sequence has no value at an index from {n_start} to {n_max}")
    best, r = head[k]  # head's row is below k, so on a tie it stays, as min's would
    if k < rows and (term := lt + bases[k]) < best:
        best, r = term, k
    return _new_tuple(PhiSValue, (math.exp(best), n_start + r))


def alpha_s(phi: ShapeFunction, psi: ShapeFunction, seq: SequenceSpec, t: float) -> float:
    """phi(t) * psi(s_inverse(t)); for the gamma_exp sequence this equals tau
    wherever phi(t)/t >= 1, bit for bit; text or a bool is a ValueError."""
    if type(t) is not float:
        t = float(_number(t, "t"))
    if t == 0.0:
        return 0.0
    if not 0.0 < t <= 1.0:
        raise DomainError("alpha_s needs t in [0,1]")
    # t is checked once: a float t in (0, 1] passes phi's guard and seq's inverse's
    value, x = phi._eval(t), seq._inverse_at(t)
    # a psi-kind psi's guard passes a finite x >= 1
    raw = 1.0 <= x < math.inf and psi.domain_kind == "psi"
    return value * (psi._eval(x) if raw else psi.eval(x))


class SeqConditionReport(Record):
    """Grid evidence for the four sequence conditions.

    monotone_decreasing / tends_to_zero cover s itself; the product fields
    cover phi(s(x)) * psi(x) (decay, and non-increase beyond the located
    tail start); step_ratio_constant is the empirical max of
    gamma(s(n+1))/gamma(s(n)) over integer steps in the grid span, None when
    the span holds no step, and passed is False then.
    """

    monotone_decreasing: bool
    tends_to_zero: bool
    product_tends_to_zero: bool
    product_tail_start: float | None
    product_tail_monotone: bool
    step_ratio_constant: float | None
    grid: tuple

    @property
    def passed(self) -> bool:
        return (
            self.monotone_decreasing
            and self.tends_to_zero
            and self.product_tends_to_zero
            and self.product_tail_monotone
            and self.step_ratio_constant is not None
            and math.isfinite(self.step_ratio_constant)
        )


def check_seq_conditions(
    phi: ShapeFunction,
    psi: ShapeFunction,
    seq: SequenceSpec,
    x_grid,
) -> SeqConditionReport:
    """The report on seq over x_grid, at least 3 strictly increasing points.

    The step ratio reads one term per integer the grid spans, so a grid that
    spans 1,000,000 integers or more is refused with DomainError before any
    term is evaluated.
    """
    xs = [float(_number(x, "x_grid")) for x in x_grid]
    if len(xs) < 3 or any(not b > a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_grid must be at least 3 strictly increasing points")
    n_lo = max(1, math.ceil(max(seq.domain_start, xs[0]) - 1e-12))
    if xs[-1] - n_lo >= _N_MAX_CAP:
        raise DomainError(
            f"the step-ratio scan is capped at {_N_MAX_CAP} integers; "
            f"the grid runs from {n_lo} to {xs[-1]!r}"
        )
    log_s = [seq.log_value(x) for x in xs]
    log_prod = [phi.log_eval(ls) + math.log(psi.eval(x)) for ls, x in zip(log_s, xs)]

    dec = all(b <= a + 1e-12 for a, b in zip(log_s, log_s[1:])) and log_s[-1] < log_s[0]
    to_zero = dec and (log_s[0] - log_s[-1]) >= math.log(10.0)

    # last index where the product still rises; the tail starts after it
    rise = -1
    for i in range(len(log_prod) - 1):
        if log_prod[i + 1] > log_prod[i] + 1e-10:
            rise = i
    tail_idx = rise + 1
    tail_monotone = tail_idx <= len(xs) - 2
    tail_start = xs[tail_idx] if tail_monotone else None
    prod_zero = tail_monotone and (max(log_prod) - log_prod[-1]) >= math.log(10.0)

    n_hi = math.floor(xs[-1] + 1e-12) - 1
    constant = None
    if n_hi >= n_lo:
        # a running maximum over neighbouring terms, which holds two at a time
        lg = (log_gamma(phi, seq.log_value(float(n))) for n in range(n_lo, n_hi + 2))
        constant = exp_or_inf(max(g1 - g0 for g0, g1 in pairwise(lg)))

    return SeqConditionReport(
        monotone_decreasing=dec,
        tends_to_zero=to_zero,
        product_tends_to_zero=prod_zero,
        product_tail_start=tail_start,
        product_tail_monotone=tail_monotone,
        step_ratio_constant=constant,
        grid=tuple(xs),
    )


class EquivalenceReport(Record):
    """Ratio statistics of two positive functions over a log grid.

    equivalent is None unless the caller supplies a threshold; the library
    never hard-codes what counts as comparable.
    """

    ratio_min: float
    ratio_max: float
    grid: tuple
    equivalent: bool | None

    @property
    def spread(self) -> float:
        return _spread(self.ratio_min, self.ratio_max)


def _spread(lo: float, hi: float) -> float:
    """hi / lo; inf once a ratio has left the float range (lo 0, hi inf), where
    no finite spread is certified and the quotient is nan or divides by zero."""
    return hi / lo if 0.0 < lo and hi < math.inf else math.inf


def _check_points(points: int) -> None:
    """Refuse a grid of more than _N_MAX_CAP points, before any is built."""
    if points > _N_MAX_CAP:
        raise DomainError(f"a grid is capped at {_N_MAX_CAP} points, got {points}")


@lru_cache(maxsize=1, typed=True)
def log_grid(t_min: float, t_max: float, points: int) -> tuple:
    """points log-spaced from t_min to t_max, both ends exact; ValueError
    unless they strictly increase (a range a few ulps wide repeats points, and
    an interior point that rounds past the float range is inf), and
    DomainError past _check_points' cap.  The last grid is kept, keyed by each
    argument's value and type, so points=200.0 does not read 200's grid; a
    grid that raised is not kept."""
    _check_points(points)
    if 0.0 < t_min < t_max and points >= 2:
        lo, hi = math.log(t_min), math.log(t_max)
        interior = [exp_or_inf(lo + (hi - lo) * i / (points - 1)) for i in range(1, points - 1)]
        grid = (t_min, *interior, t_max)
        if all(a < b for a, b in pairwise(grid)):
            return grid
    raise ValueError("need 0 < t_min < t_max and at least two points that strictly increase, "
                     f"got t_min={t_min!r}, t_max={t_max!r}, points={points}")


def equivalence(
    fn_a: Callable[[float], float],
    fn_b: Callable[[float], float],
    t_min: float,
    t_max: float,
    points: int = 200,
    threshold: float | None = None,
) -> EquivalenceReport:
    if threshold is not None and math.isnan(_number(threshold, "threshold")):
        raise DomainError("the equivalence threshold is nan")
    grid = log_grid(_number(t_min, "t_min"), _number(t_max, "t_max"), points)
    ratios = []
    for t in grid:
        va, vb = fn_a(t), fn_b(t)
        if not (0.0 < va < math.inf and 0.0 < vb < math.inf):  # NaN fails both too
            raise NonPositiveValue(f"need positive finite samples, got {va!r}/{vb!r} at t={t!r}")
        ratios.append(va / vb)
    rmin, rmax = min(ratios), max(ratios)
    verdict = None if threshold is None else _spread(rmin, rmax) <= threshold
    return EquivalenceReport(rmin, rmax, grid, verdict)


def omega_n(phi_x: ShapeFunction, phi: ShapeFunction, witness) -> float:
    """sup over the witness measures of phi_x(mu)/phi(mu), in the log domain.

    witness is a built extremal function (its log_mu attribute is used).
    The ratio is formed from the per-measure-cost logs, whose common log mu
    part cancels symbolically; subtracting the shapes' own logs instead loses
    the ratio to rounding once log mu passes 1e16.  Identical shapes give
    exactly 1.0; a ratio beyond the float range reports inf.
    """
    best = max(
        phi_x.log_gamma_eval(lm) - phi.log_gamma_eval(lm) for lm in witness.log_mu
    )
    return exp_or_inf(best)


def iterated_log_profile(alpha: float, beta: float, exponent: float) -> Callable[[float], float]:
    """Closed-form comparison profile t^alpha * L^beta * (iterated L)^exponent.

    L is 1 + log(1/t).  For alpha < 1 the last factor uses the double log; at
    alpha = 1 (and beta != 0) it uses the triple log.  Matches the deep-t
    behaviour of tau for the stock families.  Where the product leaves the
    float range it is formed from its log: a value past the range is inf,
    also where two of the log's terms overflow with opposite signs.  Text or
    a bool, as alpha, beta, exponent or the profile's t, is a ValueError.
    """
    alpha, beta, exponent = (float(_number(value, name)) for value, name in
                             ((alpha, "alpha"), (beta, "beta"), (exponent, "exponent")))
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0,1]")
    if not math.isfinite(beta) or not math.isfinite(exponent):
        raise ValueError("beta and exponent must be finite")
    if alpha == 1.0 and beta == 0.0:
        raise ValueError("alpha=1, beta=0 has no iterated-log profile")

    def profile(t: float) -> float:
        if type(t) is not float:
            t = float(_number(t, "t"))
        if not 0.0 <= t <= 1.0:
            raise DomainError("profile defined on [0,1]")
        if t == 0.0:
            return 0.0
        level1 = 1.0 - math.log(t)
        last = 1.0 + math.log(level1)
        if alpha == 1.0:
            last = 1.0 + math.log(last)
        try:
            if (value := t**alpha * level1**beta * last**exponent) < math.inf:
                return value
        except OverflowError:  # a factor past the float range
            pass
        log_l, log_last = math.log(level1), math.log(last)
        log_value = alpha * math.log(t) + beta * log_l + exponent * log_last
        if math.isnan(log_value):  # beta log L and exponent log(last) overflow, signs opposite
            big = max(abs(beta), abs(exponent))
            log_value = alpha * math.log(t) + big * (beta / big * log_l + exponent / big * log_last)
        return exp_or_inf(log_value)

    return profile
