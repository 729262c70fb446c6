"""Independent oracles shared by the test modules.

Everything here is deliberately computed without the package's own numerics:
closed-form eigendecompositions, bisection, plain difference quotients, and
the paper examples' scalar output dynamics on their own RK4.
"""

import numpy as np


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
