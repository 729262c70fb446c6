#!/usr/bin/env python3
# Two independent integrators drive every check: classical fixed-step RK4 and
# an adaptive Dormand-Prince 5(4) pair.  This script shows their agreement on
# a linear system with a known solution, dense output, and what happens when
# a trajectory genuinely stops existing.

import numpy as np

from occtl import (
    IntegratorConfig, builtin_system, integrate, map_output, sample_at,
    vector_field,
)

# --- a system with a closed-form solution ------------------------------------

lti = builtin_system("lti-remark1")      # xdot = [[-2,1],[1,-2]] x, y = x1
field = vector_field(lti)
x0 = np.array([1.0, 1.0])                # the slow eigenvector: x(t) = e^-t x0

rk4 = integrate(field, x0, 0.0, 5.0,
                IntegratorConfig(method="rk4-fixed", step=1e-3))
rk45 = integrate(field, x0, 0.0, 5.0)
exact = np.exp(-rk4.times)[:, None] * x0
print("rk4  max error vs closed form:", np.max(np.abs(rk4.states - exact)))
print("rk45 points:", len(rk45.times), " rk4 points:", len(rk4.times))

# dense output: cubic Hermite between accepted points, exact at the points
mid = 2.345
print("dense sample error:",
      abs(sample_at(rk45, mid)[0] - np.exp(-mid) * x0[0]))

# outputs are mapped over a whole trajectory in one vectorised call
y = map_output(lti, rk4)
print("y(5) =", y[-1, 0], " (expect", np.exp(-5.0), ")")

# --- finite-time escape is a result, not a crash ----------------------------

# this system's output contracts, but its state leaves every bounded set in
# finite time from generic starts; the integrator truncates and flags
wild = builtin_system("ex1-timevarying")
traj = integrate(vector_field(wild), np.array([-2.5, -5.0]), 0.0, 5.0)
print("requested horizon: 5.0   reached:", round(traj.t_end, 4))
print("failure flag:", traj.failure)
print("last state still finite:", np.all(np.isfinite(traj.states[-1])),
      " magnitude ~", f"{np.abs(traj.states[-1]).max():.2e}")
# the output stays tame right up to the escape
y = map_output(wild, traj)
print("output at the last grid point:", y[-1, 0])
