"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import os
import time

import numpy as np
import pytest

from occtl.contraction import (
    SamplingPlan, check_oes_variational, check_output_contraction,
    check_partial_contraction, fit_rate, simulate_pair,
)
from occtl.lyapunov import (
    Bounds, CandidateV, CheckDomain, check_decay, check_sandwich,
    check_time_invariant, implied_rate, reverify_counterexample,
)
from occtl.odeint import IntegratorConfig, integrate, map_output
from occtl.sysmodel import (
    BUILTIN_NAMES, builtin_system, finite_diff_jacobian, jacobians,
    vector_field,
)
from occtl.contraction import DivergenceSeries, verdict_json

from oracles import (
    fd_variational_check, lti_analytic, output_equilibrium_root,
)

V_SUM_SQ = CandidateV.from_string("(xi1 + xi2)^2")
BOX2 = ((-5.0, 5.0), (-5.0, 5.0))


def _announce(number: int, text: str) -> None:
    from conftest import acceptance_lines
    line = f"ACCEPTANCE {number}: PASS - {text}"
    acceptance_lines.append(line)
    print("\n" + line)


def test_criterion_1_integrator_against_analytic_oracle():
    """rk4(h=1e-3) within 1e-6 of the closed-form linear solution."""
    rng = np.random.default_rng(42)
    x0 = rng.uniform(-5.0, 5.0, size=(100, 2))
    field = vector_field(builtin_system("lti-remark1"))
    start = time.perf_counter()
    traj = integrate(field, x0, 0.0, 5.0,
                     IntegratorConfig(method="rk4-fixed", step=1e-3))
    elapsed = time.perf_counter() - start
    expected = lti_analytic(x0, traj.times[:, None])
    max_err = float(np.max(np.abs(traj.states - expected)))
    assert max_err <= 1e-6, f"max integration error {max_err:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _announce(1, f"100 starts, max error {max_err:.2e} <= 1e-6 "
                 f"in {elapsed:.2f} s")


def test_criterion_2_difference_quotient_consistency():
    """Flow difference quotients track the variational solution, O(delta)."""
    spec = builtin_system("ex1-timevarying")
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    x0 = np.array([-2.5, -5.0])
    xi0 = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    devs = {}
    for delta in (1e-4, 1e-5, 1e-6):
        res = fd_variational_check(spec, x0, xi0, delta, 0.0, 5.0, cfg)
        devs[delta] = res
    # the comparison grid ends where the state escapes (~t = 0.43); the
    # deviations are clean first-order in delta on the surviving span
    assert devs[1e-6].state_dev <= 1e-3
    assert devs[1e-6].output_dev <= 1e-3
    r1 = devs[1e-4].state_dev / devs[1e-5].state_dev
    r2 = devs[1e-5].state_dev / devs[1e-6].state_dev
    assert 5.0 <= r1 <= 20.0, f"delta scaling ratio {r1:.2f}"
    assert 5.0 <= r2 <= 20.0, f"delta scaling ratio {r2:.2f}"
    _announce(2, f"deviation {devs[1e-6].state_dev:.2e} <= 1e-3 at "
                 f"delta=1e-6; scaling ratios {r1:.1f}, {r2:.1f} ~ 10")


def test_criterion_3_time_varying_pair_reproduction():
    """Outputs of the two reference starts contract while states separate.

    The states escape to infinity in finite time (~0.43 < 5), so the state
    vs output comparison is taken at the last finite common grid time; the
    state separation there exceeds the contracting output separation by far
    more than the required factor of 10, and keeps growing up to the escape.
    """
    spec = builtin_system("ex1-timevarying")
    start = time.perf_counter()
    series = simulate_pair(spec, (-2.5, -5.0), (-1.5, -3.0), 0.0, 5.0)
    fit = fit_rate(series, scale=series.dx0)
    elapsed = time.perf_counter() - start
    c_implied, alpha_implied = implied_rate(Bounds(1.0, 2.0, 0.0, 2.0, p=2.0))
    assert alpha_implied == 1.0 and c_implied == pytest.approx(math.sqrt(2.0))
    assert fit.valid
    assert fit.alpha >= 0.9, f"fitted alpha {fit.alpha:.3f}"
    assert series.truncated and series.t_end < 5.0
    ratio = float(series.state_dist[-1] / series.d[-1])
    assert ratio > 10.0, f"state/output separation ratio {ratio:.1f}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _announce(3, f"alpha {fit.alpha:.2f} >= 0.9; state/output ratio "
                 f"{ratio:.3g} > 10 at t={series.t_end:.3f} (state escape "
                 f"precedes t=5); {elapsed:.2f} s")


def test_criterion_4_certificate_falsification_at_scale():
    """10^5-sample sandwich+decay pass, and a planted failure is found."""
    spec = builtin_system("ex1-timevarying")
    domain = CheckDomain(x_box=((-10.0, 10.0), (-10.0, 10.0)),
                         t_range=(0.0, 2.0 * math.pi),
                         samples=100_000, seed=7)
    good = Bounds(1.0, 2.0, 0.0, 2.0, p=2.0)
    start = time.perf_counter()
    sandwich = check_sandwich(spec, V_SUM_SQ, good, domain)
    decay = check_decay(spec, V_SUM_SQ, good, domain)
    elapsed = time.perf_counter() - start
    assert sandwich.passed and sandwich.counterexample is None
    assert decay.passed and decay.counterexample is None
    assert sandwich.checked >= 100_000 and decay.checked >= 100_000

    overclaimed = Bounds(1.0, 2.0, 0.0, 12.0, p=2.0)
    broken = check_decay(spec, V_SUM_SQ, overclaimed, domain)
    assert not broken.passed and broken.counterexample is not None
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    _announce(4, f"{sandwich.checked} samples, zero counterexamples; "
                 f"decay rate 12 falsified; {elapsed:.2f} s")


def test_criterion_5_output_equilibrium_reproduction():
    """Unstable state, convergent output, and an independent root oracle."""
    spec = builtin_system("ex2-timeinvariant")
    traj = integrate(vector_field(spec), np.array([3.0, 3.0]), 0.0, 10.0)
    assert traj.ok
    y = map_output(spec, traj)

    # output settles near the reference value
    y_final = float(y[-1, 0])
    assert abs(y_final - 0.246) <= 0.005, f"y(10) = {y_final:.6f}"

    # the scalar reduction ydot = -3y + cos y - sin y has its root where the
    # output settles; read the long-time limit once convergence is far below
    # the comparison tolerance (t = 8: |y - y*| ~ 1e-9 analytically)
    y_star = output_equilibrium_root()
    idx8 = int(np.searchsorted(traj.times, 8.0))
    y_limit = float(map_output(spec, traj)[idx8, 0]) if traj.times[idx8] == 8.0 \
        else float(np.interp(8.0, traj.times, y[:, 0]))
    assert abs(y_star - y_limit) <= 1e-6, \
        f"root {y_star:.9f} vs limit {y_limit:.9f}"
    assert abs(y_star - 0.246) <= 0.005

    # the state itself is unstable
    norms = np.linalg.norm(traj.states, axis=-1)
    exceeded = norms > 1e3
    assert exceeded.any() and float(traj.times[np.argmax(exceeded)]) < 10.0
    _announce(5, f"y(10) = {y_final:.4f} (|err| {abs(y_final-0.246):.4f} <= "
                 f"0.005); root oracle {y_star:.6f} matches limit to "
                 f"{abs(y_star-y_limit):.1e}; ||x|| > 1e3 at "
                 f"t={float(traj.times[np.argmax(exceeded)]):.2f}")


def test_criterion_6_time_invariant_certificate_and_empirical_rate():
    """Corollary-form certificate passes and the empirical rate honours it."""
    spec = builtin_system("ex2-timeinvariant")
    bounds = Bounds(1.0, 2.0, 2.0, p=2.0)     # decay constant in alpha3
    domain = CheckDomain(x_box=((-10.0, 10.0), (-10.0, 10.0)),
                         samples=20_000, seed=11)
    report = check_time_invariant(spec, V_SUM_SQ, bounds, domain)
    assert report.passed

    c, alpha = implied_rate(bounds)
    assert alpha == 1.0
    assert c == pytest.approx(math.sqrt(2.0), rel=1e-12)

    plan = SamplingPlan(box=BOX2, pairs=50, seed=5, t0=0.0, tf=5.0)
    verdict = check_oes_variational(spec, plan)
    assert verdict.holds
    assert verdict.min_alpha >= 0.9, f"min alpha {verdict.min_alpha:.3f}"
    _announce(6, f"certificate passed; implied alpha = {alpha}; empirical "
                 f"min alpha {verdict.min_alpha:.2f} >= 0.9 over 50 samples")


def test_criterion_7_output_vs_partial_discrimination():
    """Single-coordinate output contracts but is not partially contractive;
    an exponentially weighted output kills contraction altogether."""
    plan = SamplingPlan(box=BOX2, pairs=40, seed=7, t0=0.0, tf=12.0)
    good = check_output_contraction(builtin_system("lti-remark1"), plan)
    assert good.holds
    assert good.min_alpha >= 0.9, f"min alpha {good.min_alpha:.3f}"

    partial = check_partial_contraction(builtin_system("lti-remark1"), plan)
    assert not partial.holds
    witness = partial.witness
    assert witness is not None
    assert witness["dy0"] <= 1e-12          # equal initial outputs
    assert witness["max_d"] > 1e-6          # yet the outputs separate
    assert abs(witness["x0"][0] - witness["partner"][0]) <= 1e-9
    assert abs(witness["x0"][1] - witness["partner"][1]) > 1e-6

    bad = check_output_contraction(builtin_system("lti-remark1-badout"),
                                   SamplingPlan(box=BOX2, pairs=20, seed=7,
                                                t0=0.0, tf=8.0))
    assert not bad.holds
    _announce(7, f"plain output: holds (min alpha {good.min_alpha:.2f}); "
                 "partial: falsified by an equal-initial-output pair; "
                 "weighted output: falsified")


def test_criterion_8a_jacobians_against_finite_differences():
    rng = np.random.default_rng(2024)
    cases = 0
    for name in BUILTIN_NAMES:
        spec = builtin_system(name)
        for _ in range(250):
            x = rng.uniform(-5.0, 5.0, size=spec.n)
            t = float(rng.uniform(0.0, 7.0))
            b = jacobians(spec, x, t)
            Jf_fd, Jh_fd = finite_diff_jacobian(spec, x, t, step=1e-6)
            assert np.max(np.abs(b.Jf - Jf_fd)) \
                <= 1e-5 * (1.0 + np.max(np.abs(b.Jf)))
            assert np.max(np.abs(b.Jh - Jh_fd)) \
                <= 1e-5 * (1.0 + np.max(np.abs(b.Jh)))
            cases += 1
    assert cases == 1000
    _announce(8, "a) compiled vs central-difference Jacobians agree to "
                 "1e-5 relative on 1000 random cases")


def test_criterion_8b_rate_fit_exactness():
    t = np.linspace(0.0, 5.0, 401)
    for c_true, alpha_true in [(2.0, 3.0), (0.5, 0.7), (10.0, 1.25)]:
        series = DivergenceSeries(times=t, d=c_true * np.exp(-alpha_true * t),
                                  dx0=1.0, dy0=c_true, truncated=False)
        fit = fit_rate(series, scale=1.0)
        assert abs(fit.alpha - alpha_true) <= 1e-6
        assert abs(fit.c - c_true) <= 1e-6
    _announce(8, "b) rate fits recover synthetic exponentials to 1e-6")


def test_criterion_8c_falsifier_counterexample_soundness():
    spec = builtin_system("ex1-timevarying")
    domain = CheckDomain(x_box=((-10.0, 10.0), (-10.0, 10.0)),
                         samples=5_000, seed=3)
    cases = [
        (check_sandwich, Bounds(1.0, 0.5, 0.0, 2.0, p=2.0), spec),
        (check_decay, Bounds(1.0, 2.0, 0.0, 12.0, p=2.0), spec),
        (check_time_invariant, Bounds(1.0, 2.0, 12.0, p=2.0),
         builtin_system("ex2-timeinvariant")),
    ]
    for checker, bounds, system in cases:
        report = checker(system, V_SUM_SQ, bounds, domain)
        assert not report.passed
        slack = reverify_counterexample(system, V_SUM_SQ, bounds, report)
        assert slack < -1e-6, f"{report.condition}: fd re-check slack {slack}"
    _announce(8, "c) every counterexample re-evaluates to a violation "
                 "through the finite-difference path")


def test_criterion_8d_determinism_under_fixed_seed_and_threads():
    spec = builtin_system("lti-remark1")
    plan = SamplingPlan(box=BOX2, pairs=10, seed=123, t0=0.0, tf=10.0)
    outcomes = []
    saved = os.environ.get("OCCTL_THREADS")
    try:
        for threads in ("1", "8"):
            os.environ["OCCTL_THREADS"] = threads
            v = check_output_contraction(spec, plan)
            outcomes.append((v.min_alpha, v.max_c, verdict_json(v)))
    finally:
        if saved is None:
            os.environ.pop("OCCTL_THREADS", None)
        else:
            os.environ["OCCTL_THREADS"] = saved
    assert outcomes[0] == outcomes[1]
    # per-pair streams are seed ^ index, so results are independent of
    # evaluation order by construction; identical verdicts bit for bit
    _announce(8, "d) verdicts identical bit-for-bit under fixed seed for "
                 "any OCCTL_THREADS")
