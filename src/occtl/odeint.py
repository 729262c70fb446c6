"""Explicit Runge-Kutta integration with dense output and blow-up truncation.

Two independent integrators are provided on purpose: classical fixed-step RK4
and an adaptive Dormand-Prince 5(4) embedded pair.  The adaptive method is the
default engine for every checker; the fixed-step method exists so results can
be cross-checked against a second scheme.

Divergence is a first-class result, not a crash: when a state stops being
finite (or the adaptive step underflows while grinding into a singularity)
the trajectory is truncated at the last finite accepted point and flagged via
`Trajectory.failure`.  Leaving f's domain is the same result: the compiled
fields return nan there (sqrt of a negative value, say), so the stages stop
being finite, the adaptive step is rejected until it reaches its floor, and
the trajectory ends as "non_finite".  Several of the bundled demo systems
genuinely escape to infinity in finite time while their outputs stay
perfectly well behaved, so every consumer of trajectories has to cope with
truncated horizons.

Fields are callables ``field(x, t) -> dx/dt`` operating on the trailing axis,
so a batch of initial states of shape (N, d) integrates in one sweep on a
shared time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import output_map

__all__ = [
    "Trajectory", "IntegratorConfig", "integrate", "integrate_rk4",
    "integrate_rk45", "sample_at", "map_output", "trajectory_csv",
]


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus states and field values at the grid points.

    states and derivs have shape ``(len(times),) + shape(x0)``.  When
    `failure` is set the grid ends early at the last finite point; otherwise
    ``times[-1] == tf`` exactly.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    t0: float
    tf: float
    # None | "non_finite" (escape, or f undefined at a stage)
    # | "step_underflow"
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def blowup_time(self) -> float | None:
        """Time of divergence when the run failed, else None."""
        return None if self.ok else self.t_end


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection: 'rk4-fixed' uses `step`, 'rk45-adaptive' the tolerances."""

    method: str = "rk45-adaptive"
    step: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-8

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if not all(0 < v < math.inf for v in (self.step, self.rtol, self.atol)):
            raise ValueError("step, rtol and atol must be finite and positive")


def integrate(field, x0, t0: float, tf: float,
              cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate with the method picked by `cfg` (default rk45 at 1e-8)."""
    cfg = cfg or IntegratorConfig()
    if cfg.method == "rk4-fixed":
        return integrate_rk4(field, x0, t0, tf, cfg.step)
    return integrate_rk45(field, x0, t0, tf, cfg.rtol, cfg.atol)


def _finite(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a)))


def _check_horizon(t0: float, tf: float) -> None:
    # on an infinite span every stage time and the step floor are infinite
    if not (tf > t0 and math.isfinite(tf - t0)):
        raise ValueError(f"need finite t0 < tf, got t0={t0}, tf={tf}")


def _build(times, states, derivs, t0, tf, failure) -> Trajectory:
    return Trajectory(times=np.asarray(times, dtype=float),
                      states=np.stack(states), derivs=np.stack(derivs),
                      t0=float(t0), tf=float(tf), failure=failure)


# ---------------------------------------------------------------------------
# classical RK4, fixed step
# ---------------------------------------------------------------------------

def integrate_rk4(field, x0, t0: float, tf: float, step: float) -> Trajectory:
    """Classical 4th-order Runge-Kutta on a uniform grid.

    The final step is shortened so the grid lands on tf exactly.  Global
    error is O(step^4) for smooth fields.
    """
    _check_horizon(t0, tf)
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    n_steps = max(1, int(math.ceil((tf - t0) / step - 1e-9)))
    grid = t0 + step * np.arange(n_steps + 1)
    grid[-1] = tf

    x = np.asarray(x0, dtype=float)
    k1 = np.asarray(field(x, t0), dtype=float)
    times = [t0]
    states = [x]
    derivs = [k1]
    failure = None
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t, h = grid[i], grid[i + 1] - grid[i]
            k2 = np.asarray(field(x + 0.5 * h * k1, t + 0.5 * h), dtype=float)
            k3 = np.asarray(field(x + 0.5 * h * k2, t + 0.5 * h), dtype=float)
            k4 = np.asarray(field(x + h * k3, t + h), dtype=float)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not _finite(x):
                failure = "non_finite"
                break
            k1 = np.asarray(field(x, grid[i + 1]), dtype=float)
            if not _finite(k1):
                failure = "non_finite"
                break
            times.append(float(grid[i + 1]))
            states.append(x)
            derivs.append(k1)
    return _build(times, states, derivs, t0, tf, failure)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4), adaptive step
# ---------------------------------------------------------------------------

# Butcher tableau (Hairer, Norsett & Wanner, "Solving ODEs I", table 5.2)
_C = np.array([0.0, 1/5, 3/10, 4/5, 8/9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1/5]),
    np.array([3/40, 9/40]),
    np.array([44/45, -56/15, 32/9]),
    np.array([19372/6561, -25360/2187, 64448/6561, -212/729]),
    np.array([9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]),
    np.array([35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84]),
]
_B5 = np.array([35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84, 0.0])
_B4 = np.array([5179/57600, 0.0, 7571/16695, 393/640, -92097/339200,
                187/2100, 1/40])

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


def integrate_rk45(field, x0, t0: float, tf: float,
                   rtol: float = 1e-8, atol: float = 1e-8) -> Trajectory:
    """Dormand-Prince 5(4) embedded pair with standard step control.

    A step is accepted when the weighted rms error norm
    ``||e_i / (atol + rtol*max(|x_i|, |xhat_i|))||_rms`` is at most 1, and the
    step is updated by ``h <- h * clamp(0.9 * err^(-1/5), 0.2, 5.0)``.  The
    first stage of each step reuses the last stage of the previous one (FSAL).
    """
    _check_horizon(t0, tf)
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("rtol and atol must be finite and positive")

    span = tf - t0
    eps = np.finfo(float).eps
    x = np.asarray(x0, dtype=float)
    t = float(t0)
    k1 = np.asarray(field(x, t), dtype=float)
    times = [t]
    states = [x]
    derivs = [k1]
    failure = None
    h = span / 100.0

    with np.errstate(all="ignore"):
        while t < tf:
            h = min(h, tf - t)
            # below this step the grid cannot advance in double precision;
            # grinding into it means a singularity (blow-up) or stiffness
            h_floor = max(1e-13 * span, 16.0 * eps * abs(t))
            snap = tf - t <= max(h * (1 + 1e-12), h_floor)
            t_new = tf if snap else t + h
            if not snap and (h < h_floor or t_new <= t):
                failure = "step_underflow"
                break
            h = t_new - t

            k = [k1]
            for s in range(1, 7):
                xs = x + h * sum(a * ks for a, ks in zip(_A[s], k))
                k.append(np.asarray(field(xs, t + _C[s] * h), dtype=float))
            x5 = x + h * sum(b * ks for b, ks in zip(_B5, k) if b != 0.0)
            x4 = x + h * sum(b * ks for b, ks in zip(_B4, k) if b != 0.0)

            bad = not (_finite(x5) and _finite(x4))
            if bad:
                err = math.inf
            else:
                weight = atol + rtol * np.maximum(np.abs(x5), np.abs(x4))
                ratio = (x5 - x4) / weight
                err = float(np.sqrt(np.mean(ratio * ratio)))

            if err <= 1.0:  # accept
                t, x, k1 = t_new, x5, k[6]  # FSAL: k7 was evaluated at (x5, t_new)
                times.append(t)
                states.append(x)
                derivs.append(k1)
                factor = _FACTOR_MAX if err == 0.0 else min(
                    _FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2))
                h *= factor
            else:           # reject and shrink
                factor = _FACTOR_MIN if not math.isfinite(err) else min(
                    _FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2))
                h *= factor
                if h < h_floor:
                    failure = "non_finite" if bad else "step_underflow"
                    break
    return _build(times, states, derivs, t0, tf, failure)


# ---------------------------------------------------------------------------
# dense output and output mapping
# ---------------------------------------------------------------------------

def sample_at(traj: Trajectory, t):
    """Cubic Hermite interpolation on the bracketing grid interval.

    Exact (bit for bit) at grid points, and exact for polynomial solutions of
    degree at most 3.  `t` may be a scalar or an array; times outside
    [t0, t_end] raise ValueError.  A trajectory whose first step failed holds
    only its initial point, which every valid time then returns.
    """
    t_arr = np.asarray(t, dtype=float)
    lo, hi = traj.times[0], traj.times[-1]
    if np.any(t_arr < lo) or np.any(t_arr > hi):
        raise ValueError(
            f"sample time(s) outside the trajectory horizon [{lo}, {hi}]")
    if len(traj.times) == 1:
        return np.broadcast_to(traj.states[0],
                               t_arr.shape + traj.states.shape[1:]).copy()

    idx = np.clip(np.searchsorted(traj.times, t_arr, side="right") - 1,
                  0, len(traj.times) - 2)
    t_k = traj.times[idx]
    dt = traj.times[idx + 1] - t_k
    theta = (t_arr - t_k) / dt
    # broadcast the interpolation weights over the state axes
    extra = (np.newaxis,) * (traj.states.ndim - 1)
    th = theta[(...,) + extra] if t_arr.ndim else theta
    dtb = dt[(...,) + extra] if t_arr.ndim else dt

    x_k, x_k1 = traj.states[idx], traj.states[idx + 1]
    f_k, f_k1 = traj.derivs[idx], traj.derivs[idx + 1]
    h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
    h10 = th * (1.0 - th) ** 2
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    value = h00 * x_k + h01 * x_k1 + dtb * (h10 * f_k + h11 * f_k1)

    exact = th == np.floor(th)  # grid hits reproduce stored states bit-exactly
    if np.any(exact):
        stored = np.where((th == 1.0), x_k1, x_k)
        value = np.where(exact, stored, value)
    return value


def map_output(spec, traj: Trajectory) -> np.ndarray:
    """Output series y_i = h(states[i], times[i]) on the trajectory grid,
    from the compiled output map: nan or inf where h is undefined."""
    if traj.states.shape[-1] != spec.n:
        raise ValueError(
            f"trajectory dimension {traj.states.shape[-1]} does not match n={spec.n}")
    extra = (np.newaxis,) * (traj.states.ndim - 2)
    t = traj.times[(...,) + extra]
    return output_map(spec)(traj.states, t)


def trajectory_csv(traj: Trajectory, outputs: np.ndarray | None = None) -> str:
    """Render a single trajectory as CSV text.

    Header is ``t,x1,...,xn[,y1,...,ym]``; one row per grid point, numbers
    with 17 significant digits so re-reading reproduces the doubles exactly.
    """
    if traj.states.ndim != 2:
        raise ValueError("CSV export needs a single (unbatched) trajectory")
    n = traj.states.shape[1]
    columns = [traj.times] + [traj.states[:, i] for i in range(n)]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if outputs is not None:
        outputs = np.asarray(outputs)
        for j in range(outputs.shape[1]):
            columns.append(outputs[:, j])
            header.append(f"y{j + 1}")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
