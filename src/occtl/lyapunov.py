"""Sampling falsification of Lyapunov-style certificates for output decay.

A candidate certificate V(x, xi, t) together with constants
(alpha1, alpha2, alpha3, alpha4, p) is checked against two conditions:

* sandwich:  alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)},
  where nu = Jh(x, t) xi is the variational output;
* decay:     Vdot <= -alpha4 V, with
  Vdot = dV/dt + dV/dx f + dV/dxi (Jf xi).

For time-invariant systems the corollary variant drops the t dependence and
the exponential weight, and its decay constant is named alpha3 (leave alpha4
unset for that form).  `check_certificate` judges every condition of the
certificate's form on one draw of the domain; `check_sandwich`,
`check_decay` and `check_time_invariant` judge one condition each through
the same pipeline.  The samples are evaluated in blocks of `_BLOCK` rows
that stay in cache: each block's (x, xi) state is built once and read by
V's compiled kernel and by the compiled variational kernels of `augment`
(f, Jf xi and nu); only V's partials use dual numbers, as V may use abs.
Only V and each condition's slack are kept for the whole draw; the named
terms of a counterexample are recomputed on its own block.
None of them has domain guards, so a sample where f, h or V is undefined
gets a nan slack, which counts as a violation of that sample instead of
failing the run.  A passing report is evidence over the sampled domain,
never a proof; a failing report carries a counterexample that re-evaluates
to a violation through an independent finite-difference path, unless its
slack is nan.

Certificates are checked, never synthesised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exprlang import (
    Expr, compile_expr, dual_env, evaluate, evaluate_dual, free_vars, parse,
)
from .sysmodel import (
    AugmentedSystem, SystemSpec, augment, eval_fh, finite_diff_jacobian,
    json_safe, validate,
)
from .sysmodel import jacobians  # noqa: F401  looked up by bench/tracing.py

__all__ = [
    "CandidateV", "Bounds", "CheckDomain", "FalsificationReport",
    "vdot", "vdot_fd", "check_certificate", "check_sandwich", "check_decay",
    "check_time_invariant", "implied_rate", "reverify_counterexample",
    "report_json",
]

#: absolute/relative slack admitted when asserting the inequalities;
#: admits exact-equality boundary cases without false alarms
def _tolerance(v) -> np.ndarray:
    return 1e-9 + 1e-9 * np.abs(v)


#: samples evaluated together, so that a block's state, V, variational
#: field and slacks stay in cache; on the 1e5-sample ex1 certificate one
#: command took 112, 96, 83 and 80 ms at 1024, 2048, 4096 and 16384 rows
#: and 96 ms in one block
_BLOCK = 4096


@dataclass(frozen=True)
class CandidateV:
    """Certificate candidate over the variables x1..xn, xi1..xin and t."""

    expr: Expr

    @classmethod
    def from_string(cls, source: str) -> "CandidateV":
        return cls(parse(source))

    @property
    def time_dependent(self) -> bool:
        return "t" in free_vars(self.expr)

    def check_variables(self, n: int) -> None:
        allowed = {f"x{i + 1}" for i in range(n)} \
            | {f"xi{i + 1}" for i in range(n)} | {"t"}
        unknown = free_vars(self.expr) - allowed
        if unknown:
            raise ValueError(
                f"certificate uses unknown variable(s) {sorted(unknown)}; "
                f"allowed are x1..x{n}, xi1..xi{n}, t")


@dataclass(frozen=True)
class Bounds:
    """Constants of the certificate conditions.

    Time-varying form: all four alphas, with alpha3 < alpha4 (alpha3 weights
    the exponential in the sandwich, alpha4 is the decay).  Time-invariant
    form: leave alpha4 as None; alpha3 is then itself the decay constant.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float | None = None
    p: float = 2.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.alpha1, self.alpha2,
                   self.alpha3, self.p, self.alpha4 or 0.0)):
            raise ValueError("alpha1..alpha4 and p must be finite")
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ValueError("alpha1 and alpha2 must be positive")
        if self.alpha3 < 0:
            raise ValueError("alpha3 must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.alpha4 is not None and not self.alpha3 < self.alpha4:
            raise ValueError(
                f"need alpha3 < alpha4, got alpha3={self.alpha3}, "
                f"alpha4={self.alpha4}")


@dataclass(frozen=True)
class CheckDomain:
    """Sampling domain instantiating the for-all quantifier.

    x is uniform in `x_box`; xi is stratified as a uniform direction on the
    unit sphere times a radius cycling through `xi_radii` (the conditions are
    only homogeneous in xi for homogeneous V, so several scales are probed);
    t is uniform in `t_range`.  Deterministic box-corner/axis/endpoint probes
    are appended to the random samples.
    """

    x_box: tuple[tuple[float, float], ...]
    t_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    samples: int = 10_000
    seed: int = 0
    xi_radii: tuple[float, ...] = (0.1, 1.0, 10.0)

    def __post_init__(self):
        object.__setattr__(self, "x_box",
                           tuple((float(lo), float(hi)) for lo, hi in self.x_box))
        for lo, hi in self.x_box:
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(
                    f"x_box interval [{lo}, {hi}] is empty or not finite")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        t_lo, t_hi = self.t_range
        if not (0 <= t_lo <= t_hi and math.isfinite(t_hi)):
            raise ValueError("t_range must satisfy 0 <= t_lo <= t_hi < inf")
        if not (self.xi_radii
                and all(0 < r < math.inf for r in self.xi_radii)):
            raise ValueError("need xi radii, each finite and positive")


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of sampling one certificate condition.

    `worst_margin` is the smallest slack seen (negative slack beyond the
    evaluation tolerance, or nan, is a violation); `counterexample` re-
    evaluates to a violation when `passed` is False, unless its slack is nan.
    """

    condition: str
    passed: bool
    checked: int
    worst_margin: float
    counterexample: dict | None


def report_json(report: FalsificationReport) -> dict:
    return json_safe({
        "condition": report.condition,
        "passed": report.passed,
        "checked": report.checked,
        "worst_margin": report.worst_margin,
        "counterexample": report.counterexample,
    })


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sample_domain(n: int, domain: CheckDomain
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random draws plus deterministic probes; returns (x, xi, t) arrays."""
    rng = np.random.default_rng(domain.seed)
    s = domain.samples
    x = np.stack([rng.uniform(lo, hi, size=s) for lo, hi in domain.x_box],
                 axis=-1)
    dirs = rng.standard_normal((s, n))
    norms = np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs = np.where(norms < 1e-12, 1.0 / math.sqrt(n),
                    dirs / np.maximum(norms, 1e-300))
    radii = np.asarray(domain.xi_radii)[np.arange(s) % len(domain.xi_radii)]
    xi = dirs * radii[:, None]
    t = rng.uniform(domain.t_range[0], domain.t_range[1], size=s)

    # deterministic probes: box corners x axis seeds x horizon endpoints
    corner_axes = domain.x_box if n <= 6 else domain.x_box[:6]
    corners = [np.array([c[i % len(c)] if i < len(c) else
                         0.5 * (domain.x_box[i][0] + domain.x_box[i][1])
                         for i in range(n)])
               for c in itertools.product(*corner_axes)]
    axes = [sign * np.eye(n)[i] for i in range(n) for sign in (+1.0, -1.0)]
    t_lo, t_hi = domain.t_range
    probe_ts = (t_lo,) if t_lo == t_hi else (t_lo, t_hi)
    probe_x, probe_xi, probe_t = zip(*itertools.product(corners, axes,
                                                         probe_ts))
    return (np.concatenate([x, np.array(probe_x)]),
            np.concatenate([xi, np.array(probe_xi)]),
            np.concatenate([t, np.array(probe_t)]))


def _v_env(n: int, x, xi, t) -> dict:
    """V's variables, in the order x1..xn, xi1..xin, t."""
    env = {f"x{i + 1}": x[..., i] for i in range(n)}
    env.update({f"xi{i + 1}": xi[..., i] for i in range(n)})
    env["t"] = t
    return env


# ---------------------------------------------------------------------------
# certificate derivative along the augmented flow
# ---------------------------------------------------------------------------

def vdot(spec: SystemSpec, V: CandidateV, x, xi, t):
    """dV/dt + dV/dx f + dV/dxi (Jf xi).

    f and Jf xi come from the compiled variational kernel of `augment`; the
    partials of V come from dual numbers, since V may use abs.  Works on
    single points (shape (n,)) or batches (..., n); the result is a float or
    an array of the batch shape.
    """
    aug = augment(spec)
    V.check_variables(spec.n)
    x = np.asarray(x, dtype=float)
    total = _vdot(aug, V, np.concatenate(
        np.broadcast_arrays(x, np.asarray(xi, dtype=float)), axis=-1), t)
    return float(total) if x.ndim == 1 else total


def _vdot(aug: AugmentedSystem, V: CandidateV, state, t):
    """`vdot` of (..., 2n) states (x, xi)."""
    n = aug.base.n
    env = _v_env(n, state[..., :n], state[..., n:], t)
    grad = np.asarray(evaluate_dual(V.expr, dual_env(env, list(env))).grad,
                      dtype=float)
    flow = aug.field(state, t)
    dV_dx = np.moveaxis(grad[:n], 0, -1)
    dV_dxi = np.moveaxis(grad[n:2 * n], 0, -1)
    with np.errstate(all="ignore"):
        return grad[2 * n] + np.sum(dV_dx * flow[..., :n], axis=-1) \
            + np.sum(dV_dxi * flow[..., n:], axis=-1)


def vdot_fd(spec: SystemSpec, V: CandidateV, x, xi, t, step: float = 1e-6):
    """Central-difference version of `vdot`: the independent re-check path."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = spec.n

    def v_at(xv, xiv, tv) -> float:
        return float(evaluate(V.expr, _v_env(n, xv, xiv, tv)))

    dV_dt = (v_at(x, xi, t + step) - v_at(x, xi, t - step)) / (2 * step)
    grads_x = np.zeros(n)
    grads_xi = np.zeros(n)
    for i in range(n):
        e = np.eye(n)[i] * step
        grads_x[i] = (v_at(x + e, xi, t) - v_at(x - e, xi, t)) / (2 * step)
        grads_xi[i] = (v_at(x, xi + e, t) - v_at(x, xi - e, t)) / (2 * step)
    f, _ = eval_fh(spec, x, t)
    Jf, _ = finite_diff_jacobian(spec, x, t, step)
    return dV_dt + float(grads_x @ f) + float(grads_xi @ (Jf @ xi))


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def _falsify(spec: SystemSpec, V: CandidateV, domain: CheckDomain,
             conditions, at_time_zero: bool = False
             ) -> list[FalsificationReport]:
    """Judge every ``(condition, terms, requires)`` of `conditions` on one
    draw of `domain`, reports in that order.

    Validates, and raises the message of the first unmet ``(met, message)``
    of the conditions' `requires` in order, before it draws (at t = 0 if
    `at_time_zero`).  The draw is evaluated in blocks of `_BLOCK` rows: each
    block builds its (rows, 2n) state (x, xi) once, V's compiled kernel
    reads it, and each ``terms(xi, t, state, v) -> (slack, named terms after
    V)`` reads the block; only V and the slacks are kept for the whole
    draw.  Every operation is row-wise, so the blocks give the bits of one
    pass over the whole draw.  Each condition is then judged over the whole
    draw: a slack not at least -tolerance (nan included, as where V is
    undefined) is a violation, and the counterexample is the violated sample
    of least slack, nan ranked last, with the named terms of its row."""
    validate(spec)
    V.check_variables(spec.n)
    if len(domain.x_box) != spec.n:
        raise ValueError(f"domain box has {len(domain.x_box)} intervals, "
                         f"system has n={spec.n}")
    for _, _, requires in conditions:
        for met, message in requires:
            if not met:
                raise ValueError(message)
    x, xi, t = _sample_domain(spec.n, domain)
    if at_time_zero:
        t = np.zeros(x.shape[0])
    names = [f"{s}{i + 1}" for s in ("x", "xi") for i in range(spec.n)]
    v_of = compile_expr([V.expr], names)
    size = x.shape[0]
    v = np.empty(size)
    slacks = [np.empty(size) for _ in conditions]
    with np.errstate(all="ignore"):   # an overflowing sample judges as nan
        for start in range(0, size, _BLOCK):
            at = slice(start, start + _BLOCK)
            state = np.concatenate([x[at], xi[at]], axis=-1)
            v[at] = v_of(state, t[at])[:, 0]
            for (_, terms, _), slack in zip(conditions, slacks):
                slack[at] = terms(xi[at], t[at], state, v[at])[0]
        tolerance = _tolerance(v)
        return [_judge(condition, terms, x, xi, t, v, slack, tolerance)
                for (condition, terms, _), slack in zip(conditions, slacks)]


def _judge(condition: str, terms, x, xi, t, v, slack,
           tolerance) -> FalsificationReport:
    violated = ~(slack >= -tolerance)
    counterexample = None
    if violated.any():
        bad = np.flatnonzero(violated)
        i = bad[np.argmin(np.where(np.isnan(slack[bad]), np.inf, slack[bad]))]
        counterexample = {"x": [float(c) for c in x[i]],
                          "xi": [float(c) for c in xi[i]],
                          "t": float(t[i]), "V": float(v[i])}
        start = i - i % _BLOCK   # the pass's block holding i, rebuilt
        at = slice(start, start + _BLOCK)
        _, named = terms(xi[at], t[at],
                         np.concatenate([x[at], xi[at]], axis=-1), v[at])
        for k, term in named.items():   # a scalar term broadcasts
            counterexample[k] = float(
                np.broadcast_to(term, v[at].shape)[i - start])
    return FalsificationReport(condition=condition,
                               passed=counterexample is None,
                               checked=slack.size,
                               worst_margin=float(np.min(slack)),
                               counterexample=counterexample)


def _sandwich_terms(aug, bounds, xi, t, state, v, weight=1.0):
    """Slacks of alpha1 ||nu||^p <= V <= alpha2 ||xi||^p weight, with
    ||nu|| and ||xi||: (lower, upper, nu_norm, xi_norm)."""
    nu_norm = np.linalg.norm(aug.output(state, t), axis=-1)
    xi_norm = np.linalg.norm(xi, axis=-1)
    return (v - bounds.alpha1 * nu_norm ** bounds.p,
            bounds.alpha2 * xi_norm ** bounds.p * weight - v, nu_norm, xi_norm)


def _sandwich(spec: SystemSpec, bounds: Bounds, domain: CheckDomain):
    t0 = domain.t_range[0]

    def terms(xi, t, state, v):
        lower, upper, nu_norm, xi_norm = _sandwich_terms(
            augment(spec), bounds, xi, t, state, v,
            np.exp(bounds.alpha3 * (t - t0)))
        return np.minimum(lower, upper), {
            "nu_norm": nu_norm, "xi_norm": xi_norm, "lower_slack": lower,
            "upper_slack": upper, "t0": t0}

    return "sandwich", terms, ()


def _decay(spec: SystemSpec, V: CandidateV, bounds: Bounds):
    def terms(xi, t, state, v):
        vd = _vdot(augment(spec), V, state, t)
        slack = -bounds.alpha4 * v - vd
        return slack, {"vdot": vd, "slack": slack}

    return "decay", terms, [(
        bounds.alpha4 is not None,
        "the decay check needs alpha4 (time-varying form)")]


def _time_invariant(spec: SystemSpec, V: CandidateV, bounds: Bounds):
    def terms(xi, t, state, v):
        aug = augment(spec)
        lower, upper, _, _ = _sandwich_terms(aug, bounds, xi, t, state, v)
        vd = _vdot(aug, V, state, t)
        decay = -bounds.alpha3 * v - vd
        return np.minimum(np.minimum(lower, upper), decay), {
            "vdot": vd, "lower_slack": lower, "upper_slack": upper,
            "decay_slack": decay}

    return "time-invariant sandwich+decay", terms, [
        (spec.time_invariant, f"{spec.name!r} is time-varying; use the "
                              "sandwich and decay checks"),
        (not V.time_dependent,
         "the time-invariant check needs a t-independent certificate"),
        (bounds.alpha3 > 0,
         "the time-invariant form uses alpha3 > 0 as the decay constant")]


def check_certificate(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                      domain: CheckDomain) -> list[FalsificationReport]:
    """Falsify every condition of the certificate's form on one draw.

    With alpha4 set (time-varying form) the reports are those of
    `check_sandwich` and `check_decay`, in that order; without it, the one
    report of `check_time_invariant`.  The samples are drawn, and V's kernel
    compiled, once for all of them.
    """
    if bounds.alpha4 is None:
        return [check_time_invariant(spec, V, bounds, domain)]
    return _falsify(spec, V, domain, [_sandwich(spec, bounds, domain),
                                      _decay(spec, V, bounds)])


def check_sandwich(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                   domain: CheckDomain) -> FalsificationReport:
    """Falsify alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)}.

    t0 is the left end of the sampling t_range (any fixed choice only
    rescales alpha2).  Both inequalities are asserted per sample with slack
    tolerance 1e-9 (1 + |V|).
    """
    return _falsify(spec, V, domain, [_sandwich(spec, bounds, domain)])[0]


def check_decay(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                domain: CheckDomain) -> FalsificationReport:
    """Falsify Vdot <= -alpha4 V over the sampled domain."""
    return _falsify(spec, V, domain, [_decay(spec, V, bounds)])[0]


def check_time_invariant(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                         domain: CheckDomain) -> FalsificationReport:
    """Time-invariant variant: alpha1 ||nu||^p <= V <= alpha2 ||xi||^p and
    Vdot <= -alpha3 V, with alpha3 playing the decay role.

    Rejects time-varying systems and t-dependent certificates; evaluation is
    at t = 0 since nothing depends on time.
    """
    return _falsify(spec, V, domain, [_time_invariant(spec, V, bounds)],
                    at_time_zero=True)[0]


# ---------------------------------------------------------------------------
# rate implied by a passing certificate
# ---------------------------------------------------------------------------

def implied_rate(bounds: Bounds) -> tuple[float, float]:
    """(c, alpha) guaranteed by a passing certificate.

    alpha = (alpha4 - alpha3)/p for the time-varying form and alpha3/p for
    the time-invariant form; c = (alpha2/alpha1)^(1/p).  These numbers feed
    the acceptance thresholds of the empirical checkers.
    """
    if bounds.alpha4 is not None:   # Bounds keeps alpha3 < alpha4
        alpha = (bounds.alpha4 - bounds.alpha3) / bounds.p
    else:
        if not bounds.alpha3 > 0:
            raise ValueError("time-invariant form needs alpha3 > 0")
        alpha = bounds.alpha3 / bounds.p
    c = (bounds.alpha2 / bounds.alpha1) ** (1.0 / bounds.p)
    return c, alpha


# ---------------------------------------------------------------------------
# counterexample soundness
# ---------------------------------------------------------------------------

def reverify_counterexample(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                            report: FalsificationReport) -> float:
    """Recompute the violated slack at a stored counterexample through the
    finite-difference path; returns the slack (negative = confirmed).

    The recomputation shares no derivative code with the falsifier (central
    differences instead of compiled symbolic derivatives and dual-number
    partials of V), so a confirmed negative slack rules out a falsifier-side
    evaluation bug.  A counterexample of nan slack is not confirmed this way,
    and where f, h or V is undefined at the counterexample (the falsifier's
    kernels give nan there) the recomputation raises ExprEvalError.
    """
    if report.counterexample is None:
        raise ValueError("report has no counterexample")
    ce = report.counterexample
    x = np.array(ce["x"])
    xi = np.array(ce["xi"])
    t = ce["t"]
    v = float(evaluate(V.expr, _v_env(spec.n, x, xi, t)))
    if report.condition == "decay":
        return float(-bounds.alpha4 * v - vdot_fd(spec, V, x, xi, t))
    _, Jh = finite_diff_jacobian(spec, x, t, 1e-6)
    lower = v - bounds.alpha1 * np.linalg.norm(Jh @ xi) ** bounds.p
    if report.condition == "sandwich":
        upper = bounds.alpha2 * np.linalg.norm(xi) ** bounds.p \
            * math.exp(bounds.alpha3 * (t - ce.get("t0", 0.0))) - v
        return float(min(lower, upper))
    # time-invariant combined condition
    upper = bounds.alpha2 * np.linalg.norm(xi) ** bounds.p - v
    decay = -bounds.alpha3 * v - vdot_fd(spec, V, x, xi, t)
    return float(min(lower, upper, decay))
