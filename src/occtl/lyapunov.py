"""Sampling falsification of Lyapunov-style certificates for output decay.

A candidate certificate V(x, xi, t) together with constants
(alpha1, alpha2, alpha3, alpha4, p) is checked against two conditions:

* sandwich:  alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)},
  where nu = Jh(x, t) xi is the variational output;
* decay:     Vdot <= -alpha4 V, with
  Vdot = dV/dt + dV/dx f + dV/dxi (Jf xi).

For time-invariant systems the corollary variant drops the t dependence and
the exponential weight, and its decay constant is named alpha3 (leave alpha4
unset for that form).  A passing report is evidence over the sampled domain,
never a proof; a failing report carries a counterexample that re-evaluates to
a violation through an independent finite-difference path.

Certificates are checked, never synthesised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, dual_env, evaluate, evaluate_dual, free_vars, parse
from .sysmodel import (
    SystemSpec, eval_fh, finite_diff_jacobian, jacobians, validate,
)

__all__ = [
    "CandidateV", "Bounds", "CheckDomain", "FalsificationReport",
    "vdot", "vdot_fd", "check_sandwich", "check_decay",
    "check_time_invariant", "implied_rate", "reverify_counterexample",
    "report_json",
]

#: absolute/relative slack admitted when asserting the inequalities;
#: admits exact-equality boundary cases without false alarms
def _tolerance(v) -> np.ndarray:
    return 1e-9 + 1e-9 * np.abs(v)


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
        if not all(0 < r < math.inf for r in self.xi_radii):
            raise ValueError("xi radii must be finite and positive")


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of sampling one certificate condition.

    `worst_margin` is the smallest slack seen (negative slack beyond the
    evaluation tolerance is a violation); `counterexample` re-evaluates to a
    violation when `passed` is False.
    """

    condition: str
    passed: bool
    checked: int
    worst_margin: float
    counterexample: dict | None


def report_json(report: FalsificationReport) -> dict:
    return {
        "condition": report.condition,
        "passed": report.passed,
        "checked": report.checked,
        "worst_margin": report.worst_margin,
        "counterexample": report.counterexample,
    }


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
    probe_x, probe_xi, probe_t = [], [], []
    for cx in corners:
        for axis in axes:
            for tp in probe_ts:
                probe_x.append(cx)
                probe_xi.append(axis)
                probe_t.append(tp)
    x = np.concatenate([x, np.array(probe_x)])
    xi = np.concatenate([xi, np.array(probe_xi)])
    t = np.concatenate([t, np.array(probe_t)])
    return x, xi, t


def _names(n: int) -> tuple[list[str], list[str]]:
    return [f"x{i + 1}" for i in range(n)], [f"xi{i + 1}" for i in range(n)]


def _v_env(n: int, x, xi, t) -> dict:
    xn, xin = _names(n)
    env = {name: x[..., i] for i, name in enumerate(xn)}
    env.update({name: xi[..., i] for i, name in enumerate(xin)})
    env["t"] = t
    return env


# ---------------------------------------------------------------------------
# certificate derivative along the augmented flow
# ---------------------------------------------------------------------------

def vdot(spec: SystemSpec, V: CandidateV, x, xi, t):
    """dV/dt + dV/dx f + dV/dxi (Jf xi), with dual-number partials of V.

    Works on single points (shape (n,)) or batches (..., n); the result is a
    float or an array of the batch shape.
    """
    validate(spec)
    V.check_variables(spec.n)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scalar = x.ndim == 1
    n = spec.n
    xn, xin = _names(n)
    env = dual_env(_v_env(n, x, xi, t), xn + xin + ["t"])
    d = evaluate_dual(V.expr, env)
    grad = np.asarray(d.grad, dtype=float)
    f, _ = eval_fh(spec, x, t)
    Jf = jacobians(spec, x, t).Jf
    xidot = np.einsum("...ij,...j->...i", Jf, xi)
    dV_dx = np.moveaxis(grad[:n], 0, -1)
    dV_dxi = np.moveaxis(grad[n:2 * n], 0, -1)
    total = grad[2 * n] + np.sum(dV_dx * f, axis=-1) \
        + np.sum(dV_dxi * xidot, axis=-1)
    return float(total) if scalar else total


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

def _finish(condition: str, slack: np.ndarray, tol: np.ndarray,
            point_fn) -> FalsificationReport:
    slack = np.asarray(slack, dtype=float)
    violated = slack < -tol
    passed = not bool(np.any(violated))
    counterexample = None
    if not passed:
        worst = int(np.argmin(np.where(violated, slack, np.inf)))
        counterexample = point_fn(worst)
    return FalsificationReport(condition=condition, passed=passed,
                               checked=slack.size,
                               worst_margin=float(np.min(slack)),
                               counterexample=counterexample)


def _point(x, xi, t, i, **extra) -> dict:
    out = {"x": [float(v) for v in np.atleast_1d(x[i])],
           "xi": [float(v) for v in np.atleast_1d(xi[i])],
           "t": float(np.atleast_1d(t)[i] if np.ndim(t) else t)}
    out.update({k: float(v) for k, v in extra.items()})
    return out


def check_sandwich(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                   domain: CheckDomain) -> FalsificationReport:
    """Falsify alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)}.

    t0 is the left end of the sampling t_range (any fixed choice only
    rescales alpha2).  Both inequalities are asserted per sample with slack
    tolerance 1e-9 (1 + |V|).
    """
    validate(spec)
    V.check_variables(spec.n)
    x, xi, t = _sample_domain(spec.n, domain)
    env = _v_env(spec.n, x, xi, t)
    v = np.asarray(evaluate(V.expr, env), dtype=float)
    v = np.broadcast_to(v, t.shape)
    Jh = jacobians(spec, x, t).Jh
    nu = np.einsum("...ij,...j->...i", Jh, xi)
    nu_norm = np.linalg.norm(nu, axis=-1)
    xi_norm = np.linalg.norm(xi, axis=-1)
    t0 = domain.t_range[0]
    lower = v - bounds.alpha1 * nu_norm ** bounds.p
    upper = bounds.alpha2 * xi_norm ** bounds.p \
        * np.exp(bounds.alpha3 * (t - t0)) - v
    tol = _tolerance(v)
    slack = np.minimum(lower, upper)

    def point(i):
        return _point(x, xi, t, i, V=v[i], nu_norm=nu_norm[i],
                      xi_norm=xi_norm[i], lower_slack=lower[i],
                      upper_slack=upper[i], t0=t0)

    return _finish("sandwich", slack, tol, point)


def check_decay(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                domain: CheckDomain) -> FalsificationReport:
    """Falsify Vdot <= -alpha4 V over the sampled domain."""
    validate(spec)
    V.check_variables(spec.n)
    if bounds.alpha4 is None:
        raise ValueError("the decay check needs alpha4 (time-varying form)")
    x, xi, t = _sample_domain(spec.n, domain)
    v = np.broadcast_to(
        np.asarray(evaluate(V.expr, _v_env(spec.n, x, xi, t)), dtype=float),
        t.shape)
    vd = vdot(spec, V, x, xi, t)
    slack = -bounds.alpha4 * v - vd
    tol = _tolerance(v)

    def point(i):
        return _point(x, xi, t, i, V=v[i], vdot=vd[i], slack=slack[i])

    return _finish("decay", slack, tol, point)


def check_time_invariant(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                         domain: CheckDomain) -> FalsificationReport:
    """Time-invariant variant: alpha1 ||nu||^p <= V <= alpha2 ||xi||^p and
    Vdot <= -alpha3 V, with alpha3 playing the decay role.

    Rejects time-varying systems and t-dependent certificates; evaluation is
    at t = 0 since nothing depends on time.
    """
    validate(spec)
    V.check_variables(spec.n)
    if not spec.time_invariant:
        raise ValueError(f"{spec.name!r} is time-varying; use the sandwich "
                         "and decay checks")
    if V.time_dependent:
        raise ValueError("the time-invariant check needs a t-independent "
                         "certificate")
    if not bounds.alpha3 > 0:
        raise ValueError("the time-invariant form uses alpha3 > 0 as the "
                         "decay constant")
    x, xi, _ = _sample_domain(spec.n, domain)
    t = np.zeros(x.shape[0])
    v = np.broadcast_to(
        np.asarray(evaluate(V.expr, _v_env(spec.n, x, xi, t)), dtype=float),
        t.shape)
    Jh = jacobians(spec, x, t).Jh
    nu_norm = np.linalg.norm(np.einsum("...ij,...j->...i", Jh, xi), axis=-1)
    xi_norm = np.linalg.norm(xi, axis=-1)
    vd = vdot(spec, V, x, xi, t)
    lower = v - bounds.alpha1 * nu_norm ** bounds.p
    upper = bounds.alpha2 * xi_norm ** bounds.p - v
    decay = -bounds.alpha3 * v - vd
    slack = np.minimum(np.minimum(lower, upper), decay)
    tol = _tolerance(v)

    def point(i):
        return _point(x, xi, t, i, V=v[i], vdot=vd[i], lower_slack=lower[i],
                      upper_slack=upper[i], decay_slack=decay[i])

    return _finish("time-invariant sandwich+decay", slack, tol, point)


# ---------------------------------------------------------------------------
# rate implied by a passing certificate
# ---------------------------------------------------------------------------

def implied_rate(bounds: Bounds) -> tuple[float, float]:
    """(c, alpha) guaranteed by a passing certificate.

    alpha = (alpha4 - alpha3)/p for the time-varying form and alpha3/p for
    the time-invariant form; c = (alpha2/alpha1)^(1/p).  These numbers feed
    the acceptance thresholds of the empirical checkers.
    """
    if bounds.alpha4 is not None:
        if not bounds.alpha4 > bounds.alpha3:
            raise ValueError("need alpha4 > alpha3")
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
    differences instead of dual numbers), so a confirmed negative slack rules
    out a falsifier-side evaluation bug.
    """
    if report.counterexample is None:
        raise ValueError("report has no counterexample")
    ce = report.counterexample
    x = np.array(ce["x"])
    xi = np.array(ce["xi"])
    t = ce["t"]
    v = float(evaluate(V.expr, _v_env(spec.n, x, xi, t)))
    if report.condition == "sandwich":
        _, Jh = finite_diff_jacobian(spec, x, t, 1e-6)
        nu = Jh @ xi
        lower = v - bounds.alpha1 * np.linalg.norm(nu) ** bounds.p
        upper = bounds.alpha2 * np.linalg.norm(xi) ** bounds.p \
            * math.exp(bounds.alpha3 * (t - ce.get("t0", 0.0))) - v
        return float(min(lower, upper))
    if report.condition == "decay":
        return float(-bounds.alpha4 * v - vdot_fd(spec, V, x, xi, t))
    # time-invariant combined condition
    _, Jh = finite_diff_jacobian(spec, x, t, 1e-6)
    nu = Jh @ xi
    lower = v - bounds.alpha1 * np.linalg.norm(nu) ** bounds.p
    upper = bounds.alpha2 * np.linalg.norm(xi) ** bounds.p - v
    decay = -bounds.alpha3 * v - vdot_fd(spec, V, x, xi, t)
    return float(min(lower, upper, decay))
