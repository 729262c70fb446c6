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
the trajectory ends as "non_finite".  A stiff adaptive member that runs out
of its attempt budget ends the same way, as "max_steps".  Several of the
bundled demo systems genuinely escape to infinity in finite time while their
outputs stay perfectly well behaved, so every consumer of trajectories has
to cope with truncated horizons.

Fields are callables ``field(x, t) -> dx/dt`` operating on the trailing axis.
`integrate_batch` integrates M members in lockstep.  A member is one start of
any shape: a state (n,), or a pair (2, n) whose two rows share every step.
Each member keeps its own time, step, step floor, accept/reject decision and
failure, and leaves the batch when it reaches tf or fails, so one escaping
member costs its siblings nothing; every field call evaluates the running
members together, each at its own time.  Each member's trajectory is bit for
bit the one it gets alone, and the single-start functions are one-member
batches.  Fixed-step RK4 members share one grid instead.  Both integrators
keep only the points that their running members reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import output_map

__all__ = [
    "Trajectory", "IntegratorConfig", "integrate", "integrate_batch",
    "integrate_rk4", "integrate_rk45", "sample_at", "map_output",
    "trajectory_csv",
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
    # | "step_underflow" | "max_steps" (rk45's attempt budget ran out)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


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
    """Integrate from one start with the method picked by `cfg` (default
    rk45 at 1e-8): a one-member `integrate_batch`."""
    return integrate_batch(field, np.asarray(x0, dtype=float)[np.newaxis],
                           t0, tf, cfg)[0]


def integrate_batch(field, x0s, t0: float, tf: float,
                    cfg: IntegratorConfig | None = None) -> list[Trajectory]:
    """Integrate the members of `x0s`, shaped ``(M,) + member_shape``, in
    lockstep: one Trajectory per member, bit for bit the one `integrate`
    returns for that member alone.

    Every field call evaluates the k members still running at once, as
    states shaped ``(k,) + member_shape`` at times shaped ``(k,) + (1,) *
    (member ndim - 1)`` to broadcast against the member axes; RK4's members
    share one time, with 1 in place of k.
    """
    cfg = cfg or IntegratorConfig()
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim == 0 or len(x0s) == 0:
        raise ValueError("x0s needs a leading member axis and one member")
    # on an infinite span every stage time and the step floor are infinite
    if not (tf > t0 and math.isfinite(tf - t0)):
        raise ValueError(f"need finite t0 < tf, got t0={t0}, tf={tf}")
    if cfg.method == "rk4-fixed":
        return _rk4(field, x0s, t0, tf, cfg.step)
    return _rk45(field, x0s, t0, tf, cfg.rtol, cfg.atol)


def integrate_rk4(field, x0, t0: float, tf: float, step: float) -> Trajectory:
    """Classical 4th-order Runge-Kutta from one start, on a uniform grid of
    `step` whose last step is shortened to land on tf exactly."""
    return integrate(field, x0, t0, tf,
                     IntegratorConfig(method="rk4-fixed", step=step))


def integrate_rk45(field, x0, t0: float, tf: float,
                   rtol: float = 1e-8, atol: float = 1e-8) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) from one start, with step control at
    the given tolerances."""
    return integrate(field, x0, t0, tf, IntegratorConfig(rtol=rtol, atol=atol))


def _stacked(field, x0s: np.ndarray):
    """``call(x, t)``: `field` on the states x of the k running members at
    their times t, shaped (k,), or at one shared time, a numpy scalar; t is
    reshaped to broadcast against the member axes."""
    col = (-1,) + (1,) * (x0s.ndim - 2)
    return lambda x, t: np.asarray(field(x, t.reshape(col)), dtype=float)


# ---------------------------------------------------------------------------
# classical RK4, fixed step
# ---------------------------------------------------------------------------

def _rk4(field, x0s: np.ndarray, t0: float, tf: float,
         step: float) -> list[Trajectory]:
    """Classical 4th-order Runge-Kutta on a uniform grid shared by all
    members; a member stops at its first non-finite state or derivative.
    Each step logs its running members' points to `rows`, as `_rk45` does.

    The final step is shortened so the grid lands on tf exactly.  Global
    error is O(step^4) for smooth fields.  A grid too large to allocate
    raises ValueError.
    """
    try:
        grid = t0 + step * np.arange(
            max(1, math.ceil((tf - t0) / step - 1e-9)) + 1)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"rk4 step {step} is too small for the horizon "
                         f"{tf - t0}: {(tf - t0) / step:.3g} steps") from None
    grid[-1] = tf
    call, members = _stacked(field, x0s), len(x0s)
    idx = np.arange(members)
    x, k1 = x0s, call(x0s, np.float64(t0))
    rows = ids, times, states, derivs = (
        [idx], [grid[:1].repeat(members)], [x], [k1])
    failure = [None] * members
    with np.errstate(all="ignore"):
        # numpy scalars, which `call` reshapes; they round as floats do
        for i, (t, t_next) in enumerate(zip(grid, grid[1:])):
            h = t_next - t
            k2 = call(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = call(x + 0.5 * h * k2, t + 0.5 * h)
            k4 = call(x + h * k3, t + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k1 = call(x, t_next)
            finite = np.isfinite(x + 0.0 * k1)  # x and k1 both finite
            if not finite.all():
                finite = finite.reshape(len(idx), -1).all(axis=1)
                for j in idx[~finite].tolist():
                    failure[j] = "non_finite"
                idx, x, k1 = idx[finite], x[finite], k1[finite]
                if not idx.size:
                    break
            ids.append(idx)
            times.append(grid[i + 1:i + 2].repeat(len(idx)))
            states.append(x)
            derivs.append(k1)
    return _split(rows, float(t0), float(tf), failure)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4), adaptive step
# ---------------------------------------------------------------------------

# Butcher tableau (Hairer, Norsett & Wanner, "Solving ODEs I", table 5.2);
# _A keeps its zero weight, as 0 * inf is nan, and the solutions skip theirs
_C = np.array([0.0, 1/5, 3/10, 4/5, 8/9, 1.0, 1.0])
_A = [np.array(row)[:, np.newaxis] for row in (
    [], [1/5], [3/40, 9/40], [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
    [35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84])]
_B5 = np.array([35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84, 0.0])
_B4 = np.array([5179/57600, 0.0, 7571/16695, 393/640, -92097/339200,
                187/2100, 1/40])
_I5, _I4 = np.flatnonzero(_B5), np.flatnonzero(_B4)  # the stages weighted
_W5, _W4 = _B5[_I5, np.newaxis], _B4[_I4, np.newaxis]

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
#: attempts after which a member short of tf ends as "max_steps"
_MAX_ATTEMPTS = 100_000


def _step_factors(err: np.ndarray) -> np.ndarray:
    """clamp(0.9 * err^(-1/5), 0.2, 5.0): 5.0 at err = 0, 0.2 if not finite."""
    # err = 0 goes in as the least subnormal, whose power clamps to 5.0 too
    powers = np.array([math.pow(e or 5e-324, -0.2) for e in err.tolist()])
    return np.fmin(_FACTOR_MAX, np.fmax(_FACTOR_MIN, _SAFETY * powers))


def _advance(x, hx, weights, slopes):
    """``x + h * (0 + w_0 k_0 + w_1 k_1 + ...)`` from (s, N) slopes."""
    out = np.add.reduce(weights * slopes, axis=0, initial=0.0)
    return np.add(np.multiply(out, hx, out=out), x, out=out)


def _rk45(field, x0s: np.ndarray, t0: float, tf: float,
          rtol: float, atol: float) -> list[Trajectory]:
    """Dormand-Prince 5(4) embedded pair with standard step control, per
    member.

    A member's step is accepted when the weighted rms error norm
    ``||e_i / (atol + rtol*max(|x_i|, |xhat_i|))||_rms`` over its own
    elements is at most 1, and its step is updated by
    ``h <- h * clamp(0.9 * err^(-1/5), 0.2, 5.0)``.  The first stage of each
    step reuses the last stage of the member's previous one (FSAL).  A
    member leaves the batch at tf, when its step falls below its floor, or
    after `_MAX_ATTEMPTS` attempts: each running member attempts one step
    per lockstep iteration, so this holds in any batch alike.

    Each stage sums its slopes by one reduce over a buffer of all seven, in
    stage order after a leading 0.0 as a serial sum adds, and err^(-1/5) is
    libm's pow per member (numpy's vector power rounds some apart), so a
    member keeps the bits it gets alone.  A logged derivative is the field's
    own array: a view of the buffer would keep all seven slopes alive.
    """
    t0, tf = float(t0), float(tf)
    call, members = _stacked(field, x0s), len(x0s)
    tiny, floor = 16.0 * np.finfo(float).eps, 1e-13 * (tf - t0)
    idx, t = np.arange(members), np.full(members, t0)
    h = np.full(members, (tf - t0) / 100.0)
    x, k1 = x0s, call(x0s, t)
    # accepted points, in step order: member ids, times, states, derivs
    rows = ([idx], [t], [x], [k1])
    failure = [None] * members

    with np.errstate(all="ignore"):
        for _ in range(_MAX_ATTEMPTS):
            if not idx.size:
                break
            rest = tf - t
            h = np.minimum(h, rest)
            # below this step the grid cannot advance in double precision;
            # grinding into it means a singularity (blow-up) or stiffness
            h_floor = np.maximum(floor, tiny * np.abs(t))
            snap = rest <= np.maximum(h * (1 + 1e-12), h_floor)
            t_new = np.where(snap, tf, t + h)
            # a step of at least the floor always advances t
            run = snap | (h >= h_floor)
            if not run.all():
                for i in idx[~run].tolist():
                    failure[i] = "step_underflow"
                idx, t, h, h_floor, t_new, x, k1 = (
                    a[run] for a in (idx, t, h, h_floor, t_new, x, k1))
                if not idx.size:
                    break
            h = t_new - t
            t_stage = t + np.multiply.outer(_C, h)

            stages = np.empty((7,) + x.shape)
            slopes = stages.reshape(7, -1)  # flat over the running elements
            stages[0], hx, flat = k1, h.repeat(x[0].size), x.reshape(-1)
            for s in range(1, 7):
                xs = _advance(flat, hx, _A[s], slopes[:s]).reshape(x.shape)
                stages[s] = k7 = call(xs, t_stage[s])
            x5 = _advance(flat, hx, _W5, slopes.take(_I5, 0)).reshape(x.shape)
            x4 = _advance(flat, hx, _W4, slopes.take(_I4, 0))

            # rms error per member, nan (rejected) where x5 or x4 is not finite
            flat5, flat4 = x5.reshape(len(idx), -1), x4.reshape(len(idx), -1)
            ratio = (flat5 - flat4) \
                / (atol + rtol * np.maximum(np.abs(flat5), np.abs(flat4)))
            err = np.sqrt(np.add.reduce(ratio * ratio, axis=1)
                          / flat5.shape[1])
            h = h * _step_factors(err)

            accept = err <= 1.0
            accepted = np.count_nonzero(accept)
            if accepted == len(idx):  # FSAL: k7 was evaluated at (x5, t_new)
                t, x, k1 = t_new, x5, k7
                for column, new in zip(rows, (idx, t, x, k1)):
                    column.append(new)
                run = t < tf
            else:
                if accepted:
                    for column, new in zip(rows, (idx, t_new, x5, k7)):
                        column.append(new[accept])
                    t = np.where(accept, t_new, t)
                    keep = accept.reshape((-1,) + (1,) * (x.ndim - 1))
                    x, k1 = np.where(keep, x5, x), np.where(keep, k7, k1)
                # a rejection that shrinks the step below its floor ends it
                failed = ~accept & (h < h_floor)
                for j in np.flatnonzero(failed).tolist():
                    failure[idx[j]] = "step_underflow" if np.isfinite(
                        (flat5[j], flat4[j])).all() else "non_finite"
                run = ~failed & (t < tf)
            if not run.all():
                idx, t, h, x, k1 = (a[run] for a in (idx, t, h, x, k1))
        else:
            for i in idx.tolist():
                failure[i] = "max_steps"
    return _split(rows, t0, tf, failure)


def _split(rows, t0: float, tf: float, failure) -> list[Trajectory]:
    """One Trajectory per member from the accepted points that `_rk4` and
    `_rk45` log in `rows`: chunks of member ids, times, states and derivs,
    one chunk per step.

    A stable sort by member id gives each member's rows in step order.  Each
    column's chunks are dropped once joined, and the joined copy once each
    member has gathered its rows, so the batch holds one column twice at most.
    """
    ids = np.concatenate(rows[0])
    pieces = np.split(np.argsort(ids, kind="stable"),
                      np.cumsum(np.bincount(ids, minlength=len(failure)))[:-1])
    columns = []
    for chunks in rows[1:]:
        joined = np.concatenate(chunks)
        chunks.clear()
        columns.append([joined[piece] for piece in pieces])
        del joined
    return [Trajectory(times=ts, states=xs, derivs=ds, t0=t0, tf=tf,
                       failure=f)
            for ts, xs, ds, f in zip(*columns, failure)]


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
    if not np.all((lo <= t_arr) & (t_arr <= hi)):
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
    th, dtb = theta[(...,) + extra], dt[(...,) + extra]

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
