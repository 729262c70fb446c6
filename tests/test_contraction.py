import dataclasses
import math
import re

import numpy as np
import pytest

from occtl.contraction import (
    DivergenceSeries, SamplingPlan, check_oes_equilibrium,
    check_oes_variational, check_output_contraction,
    _project_equal_output, check_partial_contraction, fit_rate,
    simulate_pair, verdict_json,
)
from occtl.exprlang import evaluate, parse
from occtl.odeint import IntegratorConfig, integrate
from occtl.sysmodel import SystemSpec, augment, builtin_system

from oracles import fd_variational_check, output_equilibrium_root

BOX2 = ((-5.0, 5.0), (-5.0, 5.0))


def small_plan(**kw):
    base = dict(box=BOX2, pairs=12, seed=3, t0=0.0, tf=10.0)
    base.update(kw)
    return SamplingPlan(**base)


# ---------------------------------------------------------------------------
# SamplingPlan validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(box=((1.0, 1.0), (0.0, 1.0))),
    dict(pairs=0),
    dict(tf=0.0),
    dict(seed=-1),
    dict(tf=math.inf),
    dict(tf=math.nan),
    dict(t0=-1e308, tf=1e308),
    dict(box=((0.0, math.inf), (0.0, 1.0))),
    dict(box=((-1e308, 1e308), (0.0, 1.0))),
])
def test_plan_validation(kw):
    with pytest.raises(ValueError):
        small_plan(**kw)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.7)])
def test_plan_rejects_a_non_integer_seed_naming_it(seed):
    with pytest.raises(ValueError,
                       match=re.escape(f"seed must be an integer, got {seed!r}")):
        small_plan(seed=seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2 ** 64 - 1), True])
def test_plan_takes_numpy_and_bool_seeds(seed):
    assert small_plan(seed=seed).seed == seed


# ---------------------------------------------------------------------------
# simulate_pair
# ---------------------------------------------------------------------------

def test_pair_divergence_matches_analytic_lti():
    spec = builtin_system("lti-remark1")
    series = simulate_pair(spec, (0.0, 0.0), (0.0, 1.0), 0.0, 4.0)
    assert not series.truncated
    assert series.dx0 == 1.0
    assert series.dy0 == 0.0
    # d(t) = (e^{-t} - e^{-3t})/2 along the (0,-1) initial difference
    idx = np.argmin(np.abs(series.times - 1.0))
    assert series.times[idx] == pytest.approx(1.0, abs=1e-12)
    assert series.d[idx] == pytest.approx(0.1590462, abs=1e-6)
    expected = 0.5 * (np.exp(-series.times) - np.exp(-3.0 * series.times))
    # dense output between adaptive nodes is fourth order, hence the looser
    # grid-wide tolerance; the t = 1 value above is what the check pins down
    np.testing.assert_allclose(series.d, expected, atol=1e-6)


def test_identical_pair_rejected():
    spec = builtin_system("lti-remark1")
    with pytest.raises(ValueError):
        simulate_pair(spec, (1.0, 2.0), (1.0, 2.0), 0.0, 1.0)


def test_reference_pair_outputs_converge_while_states_separate():
    # the two starts used throughout the docs for the time-varying system
    spec = builtin_system("ex1-timevarying")
    series = simulate_pair(spec, (-2.5, -5.0), (-1.5, -3.0), 0.0, 5.0)
    assert series.truncated            # finite-time state escape before tf
    assert series.t_end < 5.0
    assert series.d[-1] < series.d[0] / 5.0
    assert series.state_dist[-1] > 10.0 * series.d[-1]


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------

def synthetic_series(c=2.0, alpha=3.0, t=None):
    t = np.linspace(0.0, 5.0, 401) if t is None else t
    return DivergenceSeries(times=t, d=c * np.exp(-alpha * t), dx0=1.0,
                            dy0=c, truncated=False)


def test_fit_rate_exact_on_synthetic_exponential():
    fit = fit_rate(synthetic_series(), scale=1.0)
    assert fit.valid
    assert fit.alpha == pytest.approx(3.0, abs=1e-6)
    assert fit.c == pytest.approx(2.0, abs=1e-6)
    assert fit.c_tight == pytest.approx(2.0, rel=1e-6)
    assert fit.residual < 1e-9


def test_fit_rate_scale_equivariance():
    base = synthetic_series()
    k = 7.25
    scaled = DivergenceSeries(times=base.times, d=k * base.d, dx0=1.0,
                              dy0=k * 2.0, truncated=False)
    f1 = fit_rate(base, scale=1.0)
    f2 = fit_rate(scaled, scale=1.0)
    assert f2.alpha == pytest.approx(f1.alpha, abs=1e-9)
    assert f2.c == pytest.approx(k * f1.c, rel=1e-9)
    # equivalently, scaling the normalisation leaves c unchanged
    f3 = fit_rate(scaled, scale=k)
    assert f3.c == pytest.approx(f1.c, rel=1e-9)


def test_fit_rate_all_zero_series_is_invalid():
    t = np.linspace(0.0, 5.0, 401)
    series = DivergenceSeries(times=t, d=np.zeros_like(t), dx0=1.0, dy0=0.0,
                              truncated=False)
    fit = fit_rate(series, scale=1.0)
    assert not fit.valid
    assert fit.n_points == 0


def test_fit_rate_too_few_points_invalid():
    t = np.linspace(0.0, 5.0, 10)
    series = DivergenceSeries(times=t, d=2.0 * np.exp(-3.0 * t), dx0=1.0,
                              dy0=2.0, truncated=False)
    assert not fit_rate(series, scale=1.0).valid  # window keeps < 10 points


def test_fit_rate_requires_positive_scale():
    with pytest.raises(ValueError):
        fit_rate(synthetic_series(), scale=0.0)


def test_fit_rate_lti_pair_approaches_slowest_mode():
    spec = builtin_system("lti-remark1")
    series = simulate_pair(spec, (0.0, 0.0), (0.0, 1.0), 0.0, 20.0)
    fit = fit_rate(series, scale=series.dx0)
    assert fit.valid
    assert fit.alpha == pytest.approx(1.0, abs=0.05)


def test_fit_rate_noise_floor_excludes_solver_noise():
    t = np.linspace(0.0, 5.0, 401)
    clean = 2.0 * np.exp(-3.0 * t)
    noisy = np.maximum(clean, 1e-13)  # noise floor visible past t ~ 10
    series = DivergenceSeries(times=t, d=noisy + 0.0, dx0=1.0, dy0=2.0,
                              truncated=False)
    fit = fit_rate(series, scale=1.0, floor=1e-9)
    assert fit.alpha == pytest.approx(3.0, abs=1e-3)


def test_c_tight_leaves_out_the_points_the_floor_drops():
    # the last point sits under an array floor that grows with a carrier,
    # as a variational output's does near an escape: it is roundoff, and
    # counted it would set c_tight to 0.5 e^{3 * 5}
    series = synthetic_series()
    d = series.d.copy()
    d[-1] = 0.5
    floor = np.full_like(d, 1e-12)
    floor[-1] = 1.0
    fit = fit_rate(dataclasses.replace(series, d=d), scale=1.0, floor=floor)
    assert fit.n_points == fit_rate(series, scale=1.0).n_points - 1
    assert fit.alpha == pytest.approx(3.0, abs=1e-6)
    assert fit.c_tight == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_c_tight_is_not_finite_where_a_point_is_not(bad):
    # the fit leaves such a point out, but an output outside h's domain
    # must still fail its own item through c_tight
    series = synthetic_series()
    d = series.d.copy()
    d[-1] = bad
    fit = fit_rate(dataclasses.replace(series, d=d), scale=1.0)
    assert fit.valid and not math.isfinite(fit.c_tight)


# ---------------------------------------------------------------------------
# output contraction
# ---------------------------------------------------------------------------

def test_lti_output_contraction_holds():
    verdict = check_output_contraction(
        builtin_system("lti-remark1"), small_plan(tf=12.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9
    assert math.isfinite(verdict.max_c)
    assert verdict.witness is None


def test_growing_output_weight_falsifies_contraction():
    verdict = check_output_contraction(
        builtin_system("lti-remark1-badout"), small_plan(tf=8.0))
    assert not verdict.holds
    assert verdict.witness is not None
    assert verdict.witness["reason"]


def test_time_varying_system_output_contracts_despite_state_escape():
    verdict = check_output_contraction(
        builtin_system("ex1-timevarying"), small_plan(pairs=8, tf=20.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9
    assert verdict.truncated == 8  # every pair escapes in finite time


def test_pointwise_bound_reassertable_from_stored_series():
    verdict = check_output_contraction(
        builtin_system("lti-remark1"), small_plan(pairs=8, tf=12.0))
    assert verdict.holds
    for r in verdict.results:
        tau = r.series.times - r.series.times[0]
        bound = r.fit.c_tight * np.exp(-r.fit.alpha * tau) * r.series.dx0
        assert np.all(r.series.d <= bound * (1.0 + 1e-12))


def test_determinism_same_seed_identical_verdicts():
    spec = builtin_system("lti-remark1")
    v1 = check_output_contraction(spec, small_plan(pairs=6))
    v2 = check_output_contraction(spec, small_plan(pairs=6))
    assert v1.min_alpha == v2.min_alpha
    assert v1.max_c == v2.max_c
    assert verdict_json(v1) == verdict_json(v2)
    for a, b in zip(v1.results, v2.results):
        np.testing.assert_array_equal(a.series.d, b.series.d)


def test_box_dimension_mismatch():
    with pytest.raises(ValueError):
        check_output_contraction(
            builtin_system("lti-remark1"), small_plan(box=((-1.0, 1.0),)))


# ---------------------------------------------------------------------------
# partial contraction
# ---------------------------------------------------------------------------

def test_single_coordinate_output_fails_partial_contraction():
    verdict = check_partial_contraction(
        builtin_system("lti-remark1"), small_plan(pairs=8, tf=8.0))
    assert not verdict.holds
    w = verdict.witness
    assert w is not None
    assert w["dy0"] <= 1e-12                 # equal initial outputs
    assert w["x0"][0] == pytest.approx(w["partner"][0], abs=1e-9)
    assert w["x0"][1] != pytest.approx(w["partner"][1], abs=1e-6)
    assert w["max_d"] > 1e-6


def test_full_state_output_partial_contraction_holds():
    spec = SystemSpec.from_strings(
        "lti-identity", 2, 2,
        ["-2*x1 + x2", "x1 - 2*x2"], ["x1", "x2"])
    verdict = check_partial_contraction(spec, small_plan(pairs=8, tf=10.0))
    assert verdict.holds
    # with the identity output dy0 = dx0, so this coincides with the
    # state-scaled check
    for r in verdict.results:
        assert r.series.dy0 == pytest.approx(r.series.dx0, rel=1e-12)


def test_projection_stops_where_jh_is_not_finite():
    # h = sqrt(x1) is finite at x1 = 0, but its partial 1/(2 sqrt(x1)) is not
    spec = SystemSpec.from_strings("sqrt-out", 2, 1, ["-x1", "-x2"],
                                   ["sqrt(x1)"])
    z = np.array([0.0, 1.0])
    x, ok = _project_equal_output(spec, np.array([1.0, 0.0]), z, 0.0)
    assert not ok and np.array_equal(x, z)


@pytest.mark.parametrize("h, ok", [("x1^3", False), ("2*x1 - x2", True)])
def test_projection_judges_its_last_step_when_it_runs_out_of_steps(h, ok):
    # one Newton step from x1 = 2 towards x1^3 = 1 ends at x1 = 1.4167, off
    # the level set; an affine output lands on it in that one step
    spec = SystemSpec.from_strings("one-step", 2, 1, ["-x1", "-x2"], [h])
    x0 = np.array([1.0, 0.0])
    x, got = _project_equal_output(spec, x0, np.array([2.0, 0.5]), 0.0,
                                   max_iter=1)
    residual = abs(evaluate(parse(h), {"x1": x[0], "x2": x[1]})
                   - evaluate(parse(h), {"x1": 1.0, "x2": 0.0}))
    assert got is ok and bool(residual <= 1e-10) is ok


# ---------------------------------------------------------------------------
# variational simulation and OES
# ---------------------------------------------------------------------------

def _variational(spec, x0, xi0, tf, cfg=None):
    """The augmented system's trajectory from (x0, xi0) over [0, tf], and
    its output nu on the trajectory's grid."""
    aug = augment(spec)
    traj = integrate(aug.field, np.concatenate([x0, xi0]), 0.0, tf, cfg)
    return traj, aug.output(traj.states, traj.times)


def test_variational_lti_fast_eigenvector():
    traj, _ = _variational(builtin_system("lti-remark1"),
                           (0.3, -0.7), (1.0, -1.0), 2.0)
    assert traj.ok
    assert traj.times[-1] == 2.0
    norm_end = np.linalg.norm(traj.states[-1, 2:])
    assert norm_end == pytest.approx(math.sqrt(2.0) * math.exp(-6.0), rel=1e-6)
    assert norm_end == pytest.approx(0.003506, abs=2e-6)


def test_variational_linearity_in_seed():
    cfg = IntegratorConfig(method="rk4-fixed", step=1e-3)
    spec = builtin_system("ex1-timevarying")
    base, base_nu = _variational(spec, (0.5, -0.25), (0.6, 0.8), 0.3, cfg)
    scaled, scaled_nu = _variational(spec, (0.5, -0.25), (6.0, 8.0), 0.3, cfg)
    np.testing.assert_allclose(scaled.states[:, 2:], 10.0 * base.states[:, 2:],
                               rtol=1e-9)
    np.testing.assert_allclose(scaled_nu, 10.0 * base_nu, rtol=1e-9, atol=1e-12)


def test_variational_output_is_seed_sum_for_additive_output():
    traj, nu = _variational(builtin_system("ex1-timevarying"),
                            (-1.0, 0.5), (0.3, 0.4), 0.4)
    np.testing.assert_allclose(nu[:, 0], traj.states[:, 2:].sum(axis=1),
                               atol=1e-12)


def test_oes_variational_lti_holds():
    verdict = check_oes_variational(
        builtin_system("lti-remark1"), small_plan(pairs=10, tf=10.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9


def test_oes_variational_badout_fails():
    verdict = check_oes_variational(
        builtin_system("lti-remark1-badout"), small_plan(pairs=6, tf=8.0))
    assert not verdict.holds
    assert verdict.witness is not None


def test_oes_variational_time_invariant_demo_holds():
    verdict = check_oes_variational(
        builtin_system("ex2-timeinvariant"), small_plan(pairs=10, tf=5.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9


def test_nu_linearity_doubles_c_keeps_alpha():
    cfg = IntegratorConfig(method="rk4-fixed", step=2e-3)
    spec = builtin_system("ex2-timeinvariant")
    x0, xi0 = (1.0, -0.5), np.array([0.8, 0.6])
    runs = [_variational(spec, x0, s * xi0, 4.0, cfg) for s in (1.0, 2.0)]
    fits = []
    for traj, nu in runs:
        series = DivergenceSeries(
            times=traj.times, d=np.linalg.norm(nu, axis=-1),
            dx0=1.0, dy0=float(np.linalg.norm(nu[0])), truncated=False)
        fits.append(fit_rate(series, scale=1.0))
    assert fits[1].alpha == pytest.approx(fits[0].alpha, abs=1e-9)
    assert fits[1].c == pytest.approx(2.0 * fits[0].c, rel=1e-9)


def test_proposition_consistency_between_pairwise_and_variational():
    # the pairwise and variational routes must agree in verdict on the same box
    for name, tf in (("lti-remark1", 10.0), ("lti-remark1-badout", 10.0),
                     ("ex1-timevarying", 5.0)):
        plan = small_plan(pairs=8, tf=tf)
        spec = builtin_system(name)
        v_pair = check_output_contraction(spec, plan)
        v_vari = check_oes_variational(spec, plan)
        assert v_pair.holds == v_vari.holds, name


# ---------------------------------------------------------------------------
# OES toward an output equilibrium
# ---------------------------------------------------------------------------

def test_oes_equilibrium_time_invariant_demo():
    y_star = output_equilibrium_root()
    verdict = check_oes_equilibrium(
        builtin_system("ex2-timeinvariant"), y_star,
        small_plan(box=((1.0, 4.0), (1.0, 4.0)), pairs=6, tf=8.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9


def test_oes_equilibrium_rejects_time_varying():
    with pytest.raises(ValueError, match="time-varying"):
        check_oes_equilibrium(builtin_system("ex1-timevarying"), 0.0,
                              small_plan())


def test_oes_equilibrium_reference_scale():
    y_star = output_equilibrium_root()
    verdict = check_oes_equilibrium(
        builtin_system("ex2-timeinvariant"), y_star,
        small_plan(box=((2.0, 4.0), (2.0, 4.0)), pairs=4, tf=8.0),
        x_ref0=(0.0, 0.081))
    assert verdict.holds


def test_oes_equilibrium_validates_y_star():
    with pytest.raises(ValueError):
        check_oes_equilibrium(builtin_system("ex2-timeinvariant"),
                              (0.1, 0.2), small_plan())


def test_oes_equilibrium_validates_x_ref0():
    # a short x_ref0 used to broadcast into every item's scale, and a nan
    # one to fail every item
    for x_ref0 in ((0.0,), (0.0, 0.0, 0.0), (math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="x_ref0"):
            check_oes_equilibrium(builtin_system("ex2-timeinvariant"), 0.24,
                                  small_plan(), x_ref0=x_ref0)


# ---------------------------------------------------------------------------
# difference-quotient consistency
# ---------------------------------------------------------------------------

def test_fd_check_exact_for_linear_systems():
    spec = builtin_system("lti-remark1")
    # solver error must sit below the asserted deviation, so integrate tightly
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    for delta in (1e-3, 1e-6):
        res = fd_variational_check(spec, (1.0, -2.0), (0.6, 0.8), delta,
                                   0.0, 5.0, cfg)
        assert not res.truncated
        assert res.state_dev <= 1e-7
        assert res.output_dev <= 1e-7


def test_fd_check_validates_inputs():
    spec = builtin_system("lti-remark1")
    with pytest.raises(ValueError):
        fd_variational_check(spec, (1.0, 0.0), (1.0, 0.0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fd_variational_check(spec, (1.0, 0.0), (0.0, 0.0), 1e-6, 0.0, 1.0)


def test_witness_of_a_pair_whose_first_step_fails():
    # the field is infinite at every start in the box, so both trajectories
    # stop at t0; the witness still reports the known separation d(t0)
    spec = SystemSpec.from_strings("instant", 2, 1,
                                   ["exp(exp(x1))", "-x2"], ["x2"])
    plan = SamplingPlan(box=((10.0, 10.5), (-1.0, 1.0)), pairs=1, tf=1.0)
    with np.errstate(over="ignore"):
        verdict = check_output_contraction(spec, plan)
    assert not verdict.holds
    w = verdict.witness
    assert w["truncated"] and w["t_end"] == 0.0
    assert w["reason"] == "invalid fit (0 usable points)"
    assert w["max_d"] == pytest.approx(w["dy0"]) and w["dy0"] > 0


def test_witness_is_recheckable():
    # whatever the witness records must reproduce the failure when re-run
    spec = builtin_system("lti-remark1-badout")
    verdict = check_output_contraction(spec, small_plan(pairs=6, tf=8.0))
    assert not verdict.holds
    w = verdict.witness
    series = simulate_pair(spec, np.array(w["x0"]), np.array(w["partner"]),
                           0.0, 8.0)
    fit = fit_rate(series, scale=series.dx0)
    assert not (fit.valid and fit.alpha >= verdict.alpha_min)


def test_oes_variational_holds_for_time_varying_demo():
    verdict = check_oes_variational(
        builtin_system("ex1-timevarying"), small_plan(pairs=10, tf=5.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9
    assert verdict.truncated == 10   # every sample rides a state escape


def test_every_checker_returns_a_verdict_where_f_leaves_its_domain(sqrt_decay):
    # every start leaves sqrt's domain by t = 2 sqrt(2) < tf; each item is
    # truncated on its own instead of the verdict raising
    plan = SamplingPlan(box=((0.5, 2.0), (0.5, 2.0)), pairs=5, tf=5.0)
    verdicts = [check(sqrt_decay, plan) for check in (
        check_output_contraction, check_partial_contraction,
        check_oes_variational)]
    verdicts.append(check_oes_equilibrium(sqrt_decay, np.zeros(1), plan))
    assert [v.truncated for v in verdicts] == [5, 5, 5, 5]
    assert verdicts[0].holds and verdicts[0].min_alpha >= 0.05
    for v in verdicts:
        verdict_json(v)


def test_alpha_min_must_be_finite():
    with pytest.raises(ValueError, match="alpha_min must be finite"):
        check_output_contraction(builtin_system("lti-remark1"),
                                 small_plan(pairs=1, tf=1.0),
                                 alpha_min=math.nan)


def test_pair_check_compiles_the_field_once(compile_calls):
    check_output_contraction(builtin_system("ex1-timevarying"),
                             small_plan(pairs=3, tf=1.0))
    assert compile_calls == [2, 1]   # f's two components, then h


def test_partial_check_compiles_each_kernel_once(compile_calls):
    check_partial_contraction(builtin_system("lti-remark1"),
                              small_plan(pairs=4, tf=1.0))
    assert compile_calls == [2, 1, 7]   # f, then h, then (Jf, Jh, dh/dt)


@pytest.mark.xfail(strict=True, reason="RK45 at rtol = atol = 1e-8 leaves "
                   "decaying pairs on a noise plateau near atol, above the "
                   "1e-9*d0 fit floor")
def test_lti_pairs_keep_contracting_over_a_long_horizon():
    verdict = check_output_contraction(
        builtin_system("lti-remark1"),
        small_plan(box=((-5.0, 5.0), (-5.0, 5.0)), pairs=5, seed=3, tf=100.0))
    assert verdict.holds


def test_variational_check_compiles_field_and_output_once(compile_calls):
    check_oes_variational(builtin_system("ex2-timeinvariant"),
                          small_plan(pairs=3, tf=1.0))
    assert compile_calls == [4, 1]   # (f, Jf xi), then Jh xi
