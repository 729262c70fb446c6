"""The checkers against the closed output dynamics of the paper examples.

Both built-in paper examples have y = x1 + x2, and y obeys a scalar ODE of
its own, ydot = g(y, t) (`oracles.OUTPUT_ODES`); the variational output
nu = xi1 + xi2 then obeys nudot = dg/dy nu.  For ex1,
dg/dy = -(4 + sin t) - 0.3 y^2 + cos y - sin y; for ex2,
dg/dy = -3 - cos y - sin y.  Both are at most -(3 - sqrt 2) for every y and
t, so the outputs contract with rate at least 3 - sqrt 2: an analytic fact
that shares no code with the checkers.  For the certificate
V = (xi1 + xi2)^2 the exact decay threshold is alpha* = 2 min(-dg/dy):
3.4311 on ex1 (at sin t = -1, y ~ -0.55) and 2 (3 - sqrt 2) = 3.1716 on ex2
(at y = -3 pi / 4).
"""

import math

import numpy as np
import pytest

from occtl.contraction import (
    SamplingPlan, check_oes_variational, check_output_contraction,
)
from occtl.lyapunov import (
    Bounds, CandidateV, CheckDomain, check_certificate,
)
from occtl.sysmodel import builtin_system
from oracles import OUTPUT_ODES, rk4_scalar

#: the slowest rate g allows
RATE = 3.0 - math.sqrt(2.0)


@pytest.mark.parametrize("name,tf", [("ex1-timevarying", 20.0),
                                     ("ex2-timeinvariant", 5.0)])
def test_pair_outputs_follow_the_scalar_output_dynamics(name, tf):
    verdict = check_output_contraction(
        builtin_system(name),
        SamplingPlan(box=((-5, 5), (-5, 5)), pairs=8, seed=7, tf=tf))
    results = verdict.results
    starts = np.array([[r.x0.sum(), r.partner.sum()] for r in results])
    t_end = np.array([r.series.t_end for r in results])
    points = len(results[0].series.times)
    y = rk4_scalar(OUTPUT_ODES[name], starts.ravel(), np.repeat(t_end, 2),
                   points).reshape(points, len(results), 2)
    for k, r in enumerate(results):
        series = r.series
        oracle = np.abs(y[:, k, 0] - y[:, k, 1])
        seen = oracle >= 1e-6 * series.dy0
        np.testing.assert_allclose(series.d[seen], oracle[seen], rtol=1e-4)
        assert np.all(series.d <= np.exp(-RATE * series.times) * series.dy0)
        if r.fit.valid:
            assert r.fit.alpha >= RATE



@pytest.mark.parametrize("name,tf", [("ex1-timevarying", 20.0),
                                     ("ex2-timeinvariant", 5.0)])
def test_variational_outputs_stay_inside_the_analytic_envelope(name, tf):
    # |nu(t)| <= e^{-(3 - sqrt 2) t} |nu(0)| on every grid; nu is a small
    # combination of xi's components, so the check's own roundoff floor
    # 64 eps ||xi(t)|| is added, as the checker adds it to its fit floor
    verdict = check_oes_variational(
        builtin_system(name),
        SamplingPlan(box=((-5, 5), (-5, 5)), pairs=8, seed=7, tf=tf))
    assert verdict.pairs == 8
    floor = 64.0 * np.finfo(float).eps
    for r in verdict.results:
        series = r.series
        envelope = np.exp(-RATE * series.times) * series.dy0
        assert np.all(series.d <= envelope + floor * series.state_dist), \
            r.index

V_SUM_SQ = CandidateV.from_string("(xi1 + xi2)^2")
BOX = CheckDomain(x_box=((-5.0, 5.0), (-5.0, 5.0)), samples=10_000, seed=0)


@pytest.mark.parametrize("alpha4,passes", [(3.4211, True), (3.4411, False)])
def test_decay_falsifier_finds_the_exact_threshold_on_ex1(alpha4, passes):
    bounds = Bounds(alpha1=1.0, alpha2=2.0, alpha3=0.0, alpha4=alpha4)
    report = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                               bounds, BOX)[1]
    assert report.passed is passes


@pytest.mark.parametrize("alpha3,passes", [(3.1616, True), (3.1816, False)])
def test_time_invariant_falsifier_finds_the_exact_threshold_on_ex2(alpha3,
                                                                   passes):
    bounds = Bounds(alpha1=1.0, alpha2=2.0, alpha3=alpha3)
    sandwich, decay = check_certificate(builtin_system("ex2-timeinvariant"),
                                        V_SUM_SQ, bounds, BOX)
    assert sandwich.passed
    assert decay.passed is passes
