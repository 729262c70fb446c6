"""Empirical checks for output contraction and output exponential stability.

Every verdict here is sampling-based evidence, never a proof: the definitions
quantify over all initial-condition pairs, so a finite sample can only
falsify, or accumulate evidence with explicit margins.  Reports therefore
always carry the worst fitted rate, the tight pointwise constant, sample
counts, and a re-checkable witness whenever a check fails.

Conventions shared by the checks:

* all norms are Euclidean;
* pairs and samples are independent work items with their own RNG stream,
  derived as ``seed XOR index``; all items of a check integrate as one
  lockstep batch in which each keeps its own steps and failure, so every
  item's result is bit for bit what it gets integrated alone (pinned
  against the single-start loops in the test suite);
* trajectories that stop being finite in finite time, or leave f's domain,
  are truncated, flagged, and reported distinctly, but a truncated pair
  still passes when its fitted decay is clean (the divergence series is
  built on the surviving span);
* outputs come from the compiled output map, so an output outside h's
  domain is nan in its own series and fails only its own item (through a
  pointwise constant or a fit scale that is not finite), never the run;
* decay rates come from a least-squares line through (t, log d(t)) with the
  first tenth of the span discounted (transient overshoot inflates c, not
  alpha) and points below a noise floor dropped (an exponentially decaying
  signal eventually sinks below solver accuracy, which would corrupt the
  slope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .odeint import (
    IntegratorConfig, Trajectory, integrate, integrate_batch, sample_at,
)
from .sysmodel import (
    SystemSpec, _integer, _intervals, augment, jacobians, json_safe,
    output_map, vector_field,
)
from .sysmodel import eval_fh  # noqa: F401  looked up by bench/tracing.py

__all__ = [
    "SamplingPlan", "DivergenceSeries", "RateFit", "PairResult", "Verdict",
    "simulate_pair", "fit_rate", "check_output_contraction",
    "check_partial_contraction", "check_oes_variational",
    "check_oes_equilibrium", "verdict_json", "DEFAULT_ALPHA_MIN",
]

#: smallest fitted decay rate a passing pair may have
DEFAULT_ALPHA_MIN = 0.05

#: points on the uniform reporting grid of a divergence series
DEFAULT_GRID_POINTS = 401


@dataclass(frozen=True)
class SamplingPlan:
    """Where and how many initial conditions to draw.

    `box` holds one (lo, hi) interval per state coordinate; `pairs` is the
    number of sampled pairs (or single samples, for the variational checks);
    the horizon is [t0, tf].
    """

    box: tuple[tuple[float, float], ...]
    pairs: int = 50
    seed: int = 0
    t0: float = 0.0
    tf: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "box", _intervals(self.box, "box"))
        if _integer(self.pairs, "pairs") < 1:
            raise ValueError("need at least one pair")
        if not 0 <= _integer(self.seed, "seed") < 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not (self.tf > self.t0 and math.isfinite(self.tf - self.t0)):
            raise ValueError(
                f"need finite t0 < tf, got [{self.t0}, {self.tf}]")


@dataclass(frozen=True)
class DivergenceSeries:
    """Output separation of a trajectory pair on a shared uniform grid.

    When the pair left the finite range before tf the grid covers only the
    surviving span and `truncated` is set.  `state_dist` keeps the state
    separation alongside the output separation `d`.
    """

    times: np.ndarray
    d: np.ndarray
    dx0: float
    dy0: float
    truncated: bool
    state_dist: np.ndarray | None = None

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class RateFit:
    """Fitted exponential envelope d(t) <= c e^{-alpha (t - t0)} scale.

    (c, alpha) come from the log-linear least squares fit; `c_tight` is
    sup_t d(t) e^{alpha (t - t0)} / scale over every grid point but the
    finite ones at or below the floor, so the bound with c_tight holds
    there by construction.  `window` is the [t_lo, t_hi] actually used
    and `residual` the rms misfit of log d.
    """

    c: float
    alpha: float
    residual: float
    window: tuple[float, float]
    c_tight: float
    valid: bool
    n_points: int


@dataclass(frozen=True)
class PairResult:
    """Outcome for one sampled pair (or one variational/equilibrium sample).

    `partner` is the second initial state for pair checks, the variational
    seed for the OES check, and None for the equilibrium check.
    """

    index: int
    x0: np.ndarray
    partner: np.ndarray | None
    series: DivergenceSeries
    fit: RateFit | None
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class Verdict:
    """Aggregate sampling verdict with the evidence that produced it.

    `witness` describes the lowest-index failing item (None when every item
    passed), so `min_alpha`, the least fitted rate over all items, may come
    from another item than the witness's alpha.
    """

    kind: str
    holds: bool
    min_alpha: float
    max_c: float
    pairs: int
    truncated: int
    alpha_min: float
    witness: dict | None
    results: tuple[PairResult, ...]


# ---------------------------------------------------------------------------
# pair simulation and rate fitting
# ---------------------------------------------------------------------------

def _pair_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(int(np.uint64(seed) ^ np.uint64(index)))

def _sample_box(rng: np.random.Generator, box) -> np.ndarray:
    return np.array([rng.uniform(lo, hi) for lo, hi in box])


def _second_start(rng: np.random.Generator, box, x0: np.ndarray) -> np.ndarray:
    """The next draw from `box` that differs from x0."""
    z = _sample_box(rng, box)
    while np.array_equal(z, x0):
        z = _sample_box(rng, box)
    return z


def _observe(traj: Trajectory,
             output) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Sample a uniform grid over the surviving span of `traj`.

    Returns the grid, the states on it, ``output(states, grid)`` and whether
    the trajectory ended before tf.
    """
    grid = np.linspace(traj.t0, traj.t_end, DEFAULT_GRID_POINTS)
    states = sample_at(traj, grid)
    return grid, states, output(states, grid), not traj.ok


def _pair_series(spec: SystemSpec, traj: Trajectory, x0: np.ndarray,
                 x0p: np.ndarray) -> DivergenceSeries:
    """Output separation along a pair trajectory started at (x0, x0p)."""
    h = output_map(spec)
    grid, states, y, truncated = _observe(                  # (g, 2, n|m)
        traj, lambda s, g: h(s, g[:, None]))
    d = np.linalg.norm(y[:, 0] - y[:, 1], axis=-1)
    # the grid starts at t0, where sample_at returns the initial states
    return DivergenceSeries(
        times=grid, d=d, dx0=float(np.linalg.norm(x0 - x0p)), dy0=float(d[0]),
        truncated=truncated,
        state_dist=np.linalg.norm(states[:, 0] - states[:, 1], axis=-1))


def simulate_pair(spec: SystemSpec, x0, x0p, t0: float, tf: float,
                  cfg: IntegratorConfig | None = None) -> DivergenceSeries:
    """Integrate two starts and return their output separation series.

    Both trajectories run on shared integrator steps; outputs are mapped
    onto a uniform reporting grid over the span both survive.  Identical
    initial states are rejected.
    """
    x0 = np.asarray(x0, dtype=float)
    x0p = np.asarray(x0p, dtype=float)
    if np.array_equal(x0, x0p):
        raise ValueError("the two initial states must differ")
    traj = integrate(vector_field(spec), np.stack([x0, x0p]), t0, tf, cfg)
    with np.errstate(all="ignore"):  # an overflow leaves inf or nan in d
        return _pair_series(spec, traj, x0, x0p)


def fit_rate(series: DivergenceSeries, scale: float,
             floor: float | np.ndarray | None = None) -> RateFit:
    """Least-squares exponential rate of a decay series.

    Fits log d(t) = intercept - alpha (t - t0) over the window starting a
    tenth into the span (and after t0, so a series without span has no
    usable points), keeping only points above `floor` (default
    ``max(1e-12, 1e-9 d(t0))``).  `floor` may also be an array: when the
    decaying signal is the small difference of a large carrier (variational
    outputs near a state blow-up), the roundoff level grows with the carrier
    and the floor has to grow with it.  Fewer than 10 usable points yields
    an invalid fit.  c is normalised by `scale`, so the claimed envelope is
    d(t) <= c e^{-alpha (t - t0)} scale.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    t = np.asarray(series.times, dtype=float)
    d = np.asarray(series.d, dtype=float)
    if floor is None:
        floor = max(1e-12, 1e-9 * float(d[0]))
    t0 = t[0]
    window_start = t0 + 0.1 * (t[-1] - t0)
    usable = (t >= window_start) & (t > t0) & (d > floor) & np.isfinite(d)
    n_points = int(np.count_nonzero(usable))
    if n_points < 10:
        return RateFit(c=math.nan, alpha=math.nan, residual=math.nan,
                       window=(math.nan, math.nan), c_tight=math.nan,
                       valid=False, n_points=n_points)
    tau = t[usable] - t0
    logd = np.log(d[usable])
    design = np.stack([tau, np.ones_like(tau)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, logd, rcond=None)
    alpha = float(-slope)
    c = float(math.exp(intercept) / scale)
    residual = float(np.sqrt(np.mean((logd - (intercept + slope * tau)) ** 2)))
    with np.errstate(over="ignore"):
        envelope = d * np.exp(alpha * (t - t0))
    c_tight = float(np.max(envelope[~(d <= floor)]) / scale)
    return RateFit(c=c, alpha=alpha, residual=residual,
                   window=(float(tau[0] + t0), float(tau[-1] + t0)),
                   c_tight=c_tight, valid=True, n_points=n_points)


# ---------------------------------------------------------------------------
# verdict assembly
# ---------------------------------------------------------------------------

def _witness_from(result: PairResult) -> dict:
    w = {
        "pair_index": result.index,
        "x0": result.x0,
        "partner": result.partner,
        "reason": result.note or "decay fit failed",
        "t_end": result.series.t_end,
        "truncated": result.series.truncated,
        "dx0": result.series.dx0,
        "dy0": result.series.dy0,
        "max_d": np.max(result.series.d),
    }
    if result.fit is not None and result.fit.valid:
        w["alpha"] = result.fit.alpha
        w["c_tight"] = result.fit.c_tight
    return json_safe(w)


def _assemble(kind: str, results: list[PairResult], alpha_min: float) -> Verdict:
    fitted = [r for r in results if r.fit is not None and r.fit.valid]
    min_alpha = min((r.fit.alpha for r in fitted), default=math.nan)
    max_c = max((r.fit.c_tight for r in fitted), default=math.nan)
    failed = [r for r in results if not r.passed]
    return Verdict(
        kind=kind, holds=not failed,
        min_alpha=float(min_alpha), max_c=float(max_c),
        pairs=len(results),
        truncated=sum(r.series.truncated for r in results),
        alpha_min=alpha_min,
        witness=_witness_from(failed[0]) if failed else None,
        results=tuple(results))


def _judged(index: int, x0, partner, series: DivergenceSeries, scale: float,
            alpha_min: float, floor=None) -> PairResult:
    """Fit the decay of `series` at `scale` and judge it against alpha_min;
    a scale that is not positive and finite fails the item unfitted."""
    if not 0 < scale < math.inf:
        return PairResult(index, x0, partner, series, None, False,
                          f"fit scale {scale:.4g} is not positive and finite")
    fit = fit_rate(series, scale=scale, floor=floor)
    if not fit.valid:
        note = f"invalid fit ({fit.n_points} usable points)"
    elif not fit.alpha >= alpha_min:
        note = f"fitted alpha {fit.alpha:.4g} below alpha_min {alpha_min:g}"
    elif not math.isfinite(fit.c_tight):
        note = "pointwise constant is not finite"
    else:
        note = None
    return PairResult(index, x0, partner, series, fit, note is None, note)


def _check(kind: str, spec: SystemSpec, plan: SamplingPlan,
           cfg: IntegratorConfig | None, alpha_min: float, draw, field, start,
           judge) -> Verdict:
    """The item pipeline of every sampling check.

    ``draw(rng)`` turns item i's ``seed XOR i`` stream into its initial
    conditions (a tuple), for every item; ``start(item)`` is the item's
    initial state under `field`.  All items then integrate as the members
    of one lockstep batch, and ``judge(i, traj, *item)`` returns each
    item's PairResult, in index order.
    """
    if len(plan.box) != spec.n:
        raise ValueError(f"plan box has {len(plan.box)} intervals, system has "
                         f"n={spec.n}")
    if not math.isfinite(alpha_min):
        raise ValueError(f"alpha_min must be finite, got {alpha_min}")
    # an item that overflows judges as inf or nan in its own series
    with np.errstate(all="ignore"):
        items = [draw(_pair_rng(plan.seed, i)) for i in range(plan.pairs)]
        trajs = integrate_batch(field, np.stack([start(item) for item in items]),
                                plan.t0, plan.tf, cfg)
        results = [judge(i, traj, *item)
                   for i, (traj, item) in enumerate(zip(trajs, items))]
    return _assemble(kind, results, alpha_min)


def verdict_json(verdict: Verdict) -> dict:
    """JSON-ready summary of a verdict (heavy series omitted)."""
    return json_safe({
        "kind": verdict.kind,
        "holds": verdict.holds,
        "min_alpha": verdict.min_alpha,
        "max_c": verdict.max_c,
        "pairs": verdict.pairs,
        "truncated": verdict.truncated,
        "alpha_min": verdict.alpha_min,
        "witness": verdict.witness,
    })


# ---------------------------------------------------------------------------
# output contraction (pairs scaled by the initial state difference)
# ---------------------------------------------------------------------------

def check_output_contraction(spec: SystemSpec, plan: SamplingPlan,
                             cfg: IntegratorConfig | None = None,
                             alpha_min: float = DEFAULT_ALPHA_MIN) -> Verdict:
    """Sample pairs from the box and require every output separation to decay.

    A pair passes when its divergence series admits a valid fit with
    alpha >= alpha_min (scale: initial state distance) and a finite
    pointwise constant.  Pairs that left the finite range are reported via
    the `truncated` count and judged on their surviving span.
    """
    def draw(rng):
        x0 = _sample_box(rng, plan.box)
        return x0, _second_start(rng, plan.box, x0)

    def judge(i, traj, x0, x0p):
        series = _pair_series(spec, traj, x0, x0p)
        return _judged(i, x0, x0p, series, series.dx0, alpha_min)

    return _check("output-contraction", spec, plan, cfg, alpha_min, draw,
                  vector_field(spec), np.stack, judge)


# ---------------------------------------------------------------------------
# partial contraction (pairs scaled by the initial output difference)
# ---------------------------------------------------------------------------

def _project_equal_output(spec: SystemSpec, x0: np.ndarray, z: np.ndarray,
                          t0: float, tol: float = 1e-10,
                          max_iter: int = 25) -> tuple[np.ndarray, bool]:
    """Move z onto the level set h(., t0) = h(x0, t0) by Newton steps.

    Each step is the minimal-norm correction solving Jh dx = residual, so z
    only moves along the row space of Jh and keeps its components in the
    output's null directions.  One step is exact for affine output maps.
    A residual or a Jh that is not finite (h undefined or not
    differentiable at x0 or at a step) stops the walk as not ok.
    """
    h = output_map(spec)
    y_target = h(x0, t0)
    x = np.array(z, dtype=float)
    for _ in range(max_iter):
        r = h(x, t0) - y_target
        if not np.all(np.isfinite(r)):
            return x, False
        if np.linalg.norm(r) <= tol:
            return x, True
        Jh = jacobians(spec, x, t0).Jh
        if not np.all(np.isfinite(Jh)):
            return x, False
        step, *_ = np.linalg.lstsq(Jh, r, rcond=None)
        x = x - step
    return x, bool(np.linalg.norm(h(x, t0) - y_target) <= tol)


def check_partial_contraction(spec: SystemSpec, plan: SamplingPlan,
                              cfg: IntegratorConfig | None = None,
                              alpha_min: float = DEFAULT_ALPHA_MIN) -> Verdict:
    """Like the output-contraction check, but scaled by the initial output
    difference, with pairs constructed to have equal initial outputs.

    The second member of each pair is projected onto the level set of h
    through the first (so dy0 ~ 0 whenever the output has null directions).
    Any pair whose outputs start equal (dy0 <= 1e-12) but separate past 1e-6
    is an immediate counterexample.  When no distinct equal-output partner
    exists (e.g. h is the identity) the unprojected draw is used and the
    bound is fitted with the dy0 scale, which then equals dx0.
    """
    def draw(rng):
        x0 = _sample_box(rng, plan.box)
        z = _second_start(rng, plan.box, x0)
        projected, ok = _project_equal_output(spec, x0, z, plan.t0)
        ok = ok and not np.linalg.norm(projected - x0) \
            <= 1e-9 * (1.0 + np.linalg.norm(x0))
        return x0, projected if ok else z

    def judge(i, traj, x0, x0p):
        series = _pair_series(spec, traj, x0, x0p)
        if not series.dy0 <= 1e-12:
            return _judged(i, x0, x0p, series, series.dy0, alpha_min)
        max_d = float(np.max(series.d))
        if not max_d <= 1e-6:
            return PairResult(i, x0, x0p, series, None, False,
                              f"outputs separate to {max_d:.3g} from equal "
                              "initial outputs (no initial-output scale can "
                              "bound this)")
        return PairResult(i, x0, x0p, series, None, True,
                          "outputs remained equal along the pair")

    return _check("partial-contraction", spec, plan, cfg, alpha_min, draw,
                  vector_field(spec), np.stack, judge)


# ---------------------------------------------------------------------------
# OES of the variational family
# ---------------------------------------------------------------------------

def check_oes_variational(spec: SystemSpec, plan: SamplingPlan,
                          cfg: IntegratorConfig | None = None,
                          alpha_min: float = DEFAULT_ALPHA_MIN) -> Verdict:
    """Exponential decay of the variational output over sampled base starts.

    Base starts x0 come from the box; seeds xi0 are uniform on the unit
    sphere, so the fit scale ||xi0|| is 1 and the reported worst (c, alpha)
    reflect uniformity over base trajectory, start time, and seed.
    """
    aug, n = augment(spec), spec.n

    def draw(rng):
        x0 = _sample_box(rng, plan.box)
        xi0 = rng.standard_normal(n)
        while np.linalg.norm(xi0) < 1e-12:
            xi0 = rng.standard_normal(n)
        return x0, xi0 / np.linalg.norm(xi0)

    def judge(i, traj, x0, xi0):
        grid, states, nu, truncated = _observe(traj, aug.output)
        xi_norm = np.linalg.norm(states[:, n:], axis=-1)
        series = DivergenceSeries(
            times=grid, d=np.linalg.norm(nu, axis=-1),
            dx0=float(np.linalg.norm(xi0)),
            dy0=float(np.linalg.norm(nu[0])),
            truncated=truncated,
            state_dist=xi_norm)
        # nu is a small combination of xi's components, so its roundoff
        # level tracks ||xi||; near a blow-up that dwarfs any absolute floor
        floor = np.maximum(max(1e-12, 1e-9 * float(series.d[0])),
                           64.0 * np.finfo(float).eps * xi_norm)
        return _judged(i, x0, xi0, series, float(np.linalg.norm(xi0)),
                       alpha_min, floor)

    return _check("oes-variational", spec, plan, cfg, alpha_min, draw,
                  aug.field, np.concatenate, judge)


# ---------------------------------------------------------------------------
# OES toward an output equilibrium (time-invariant systems)
# ---------------------------------------------------------------------------

def check_oes_equilibrium(spec: SystemSpec, y_star, plan: SamplingPlan,
                          cfg: IntegratorConfig | None = None,
                          x_ref0=None,
                          alpha_min: float = DEFAULT_ALPHA_MIN) -> Verdict:
    """Exponential convergence of outputs to the constant y_star.

    Only meaningful for time-invariant systems; time-varying ones are
    rejected.  The fit scale is ||x0 - x_ref0|| when a reference initial
    state is supplied, else the documented surrogate 1 + ||x0|| (the
    reference trajectory behind y_star is generally unknown).
    """
    if not spec.time_invariant:
        raise ValueError(f"{spec.name!r} is time-varying; the output-"
                         "equilibrium check applies to time-invariant systems")
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    if y_star.shape != (spec.m,) or not np.all(np.isfinite(y_star)):
        raise ValueError(f"y_star must be a finite vector of length m={spec.m}")
    if x_ref0 is not None:
        x_ref0 = np.atleast_1d(np.asarray(x_ref0, dtype=float))
        if x_ref0.shape != (spec.n,) or not np.all(np.isfinite(x_ref0)):
            raise ValueError(
                f"x_ref0 must be a finite vector of length n={spec.n}")
    h = output_map(spec)

    def judge(i, traj, x0):
        grid, _, y, truncated = _observe(traj, h)
        d = np.linalg.norm(y - y_star, axis=-1)
        series = DivergenceSeries(
            times=grid, d=d, dx0=float(np.linalg.norm(x0)),
            dy0=float(d[0]), truncated=truncated)
        scale = (float(np.linalg.norm(x0 - x_ref0)) if x_ref0 is not None
                 else 1.0 + float(np.linalg.norm(x0)))
        return _judged(i, x0, x_ref0, series, scale, alpha_min)

    return _check("oes-equilibrium", spec, plan, cfg, alpha_min,
                  lambda rng: (_sample_box(rng, plan.box),),
                  vector_field(spec), lambda item: item[0], judge)
