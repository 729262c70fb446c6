"""Independent oracles shared by the test modules.

Everything here is deliberately computed without the package's own numerics:
closed-form eigendecompositions, bisection, plain difference quotients, the
paper examples' scalar output dynamics on their own RK4, the single-start
RK4 and Dormand-Prince loops that the lockstep batch of `occtl.odeint` must
reproduce bit for bit, and the dual-number Vdot and the stacking draw that
the certificate falsifier of `occtl.lyapunov` replaced.
"""

import itertools
import math

import numpy as np

from occtl.exprlang import dual_env, evaluate_dual
from occtl.odeint import Trajectory
from occtl.sysmodel import augment


def lti_analytic(x0, t):
    """Closed-form solution of xdot = [[-2,1],[1,-2]] x.

    Eigenpairs: value -1 with vector (1,1) and value -3 with vector (1,-1),
    so  x(t) = 1/2 (x10+x20) e^{-t} (1,1) + 1/2 (x10-x20) e^{-3t} (1,-1).
    `x0` has shape (..., 2); `t` broadcasts against the leading axes.
    """
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    a = 0.5 * (x0[..., 0] + x0[..., 1])
    b = 0.5 * (x0[..., 0] - x0[..., 1])
    e1, e3 = np.exp(-t), np.exp(-3.0 * t)
    return np.stack([a * e1 + b * e3, a * e1 - b * e3], axis=-1)


def bisect(fn, lo, hi, iterations=200):
    """Plain bisection for a sign change of fn on [lo, hi]."""
    flo = fn(lo)
    if flo * fn(hi) > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def output_equilibrium_root():
    """Root of 3y = cos(y) - sin(y), the scalar reduction of the
    time-invariant demo system's output dynamics."""
    return bisect(lambda y: 3.0 * y - np.cos(y) + np.sin(y), 0.0, 1.0)


#: the scalar ODE ydot = g(y, t) that the output y = x1 + x2 of each
#: built-in paper example obeys (f1 + f2 written in y alone); dg/dy is at
#: most -(3 - sqrt(2)) for every y and t on both
OUTPUT_ODES = {
    "ex1-timevarying": lambda y, t: (-(4.0 + np.sin(t)) * y - 0.1 * y ** 3
                                     + np.sin(y) + np.cos(y)
                                     + np.sin(t) + np.cos(t)),
    "ex2-timeinvariant": lambda y, t: -3.0 * y - np.sin(y) + np.cos(y),
}


def rk4_scalar(g, y0, t_end, points, substeps=10):
    """Classical fixed-step RK4 for ydot = g(y, t) from t = 0.

    Vectorised over members, each with its own horizon `t_end`: returns y
    at `points` uniform times on [0, t_end] per member, shaped
    (points, members), taking `substeps` steps between two of them.
    """
    y = np.array(y0, dtype=float)
    h = np.asarray(t_end, dtype=float) / ((points - 1) * substeps)
    out = [y.copy()]
    for k in range((points - 1) * substeps):
        t = k * h
        k1 = g(y, t)
        k2 = g(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = g(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = g(y + h * k3, t + h)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % substeps == 0:
            out.append(y.copy())
    return np.stack(out)


def counting_field(field):
    """Wrap a field so the number of evaluations can be asserted."""
    calls = {"n": 0}

    def wrapped(x, t):
        calls["n"] += 1
        return field(x, t)

    return wrapped, calls


# ---------------------------------------------------------------------------
# the single-start Runge-Kutta loops that `occtl.odeint` replaced with its
# lockstep batch, kept verbatim as the bit-for-bit reference for it
# ---------------------------------------------------------------------------

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

def serial_rk4(field, x0, t0: float, tf: float, step: float) -> Trajectory:
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


def step_factor(err: float) -> float:
    """Step multiplier after an attempt with error norm `err`: the scalar
    rule that `occtl.odeint._step_factors` applies to every member at once."""
    if err == 0.0:
        return _FACTOR_MAX
    if not math.isfinite(err):
        return _FACTOR_MIN
    return min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2))


def serial_rk45(field, x0, t0: float, tf: float,
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
# the certificate falsifier's former Vdot and draw
# ---------------------------------------------------------------------------

def dual_vdot(spec, V, state, t):
    """dV/dt + dV/dx f + dV/dxi (Jf xi) of (..., 2n) states (x, xi): V's
    partials from dual numbers, f and Jf xi from the variational field of
    `augment`, summed with np.sum."""
    n = spec.n
    env = {f"x{i + 1}": state[..., i] for i in range(n)}
    env.update({f"xi{i + 1}": state[..., n + i] for i in range(n)})
    env["t"] = t
    grad = np.asarray(evaluate_dual(V.expr, dual_env(env, list(env))).grad,
                      dtype=float)
    flow = augment(spec).field(state, t)
    dV_dx = np.moveaxis(grad[:n], 0, -1)
    dV_dxi = np.moveaxis(grad[n:2 * n], 0, -1)
    with np.errstate(all="ignore"):
        return grad[2 * n] + np.sum(dV_dx * flow[..., :n], axis=-1) \
            + np.sum(dV_dxi * flow[..., n:], axis=-1)


def stacked_sample_domain(n, domain):
    """The certificate draw built by stacking and concatenating: uniform x
    per box interval, unit normal directions times the cycling radii,
    uniform t, then the box-corner x axis-seed x endpoint probes."""
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
