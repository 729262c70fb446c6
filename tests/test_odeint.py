import math
import tracemalloc
import warnings

import numpy as np
import pytest

from occtl.odeint import (
    IntegratorConfig, integrate, integrate_batch, integrate_rk4, integrate_rk45,
    map_output, sample_at, trajectory_csv,
)
from occtl.sysmodel import (
    SystemSpec, augment, builtin_system, vector_field,
)

from oracles import counting_field, lti_analytic


def decay(x, t):
    return -x


def test_rk4_scalar_linear_ode():
    traj = integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert traj.ok and traj.times[-1] == 1.0
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-9


def test_rk4_lti_endpoint():
    field = vector_field(builtin_system("lti-remark1"))
    traj = integrate_rk4(field, np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
    np.testing.assert_allclose(
        traj.states[-1], [math.exp(-1.0), math.exp(-1.0)], atol=1e-8)


def test_rk4_is_fourth_order():
    def err(step):
        traj = integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, step)
        return abs(traj.states[-1, 0] - math.exp(-1.0))
    ratio = err(4e-3) / err(2e-3)
    assert 13.0 <= ratio <= 19.0


def test_rk4_last_step_shortened_to_land_on_tf():
    traj = integrate_rk4(decay, np.array([1.0]), 0.0, 0.95, 0.1)
    assert traj.times[-1] == 0.95
    assert np.all(np.diff(traj.times) > 0)


def test_rk45_scalar_accuracy_and_fewer_evals():
    counted45, calls45 = counting_field(decay)
    traj45 = integrate_rk45(counted45, np.array([1.0]), 0.0, 1.0,
                            rtol=1e-8, atol=1e-8)
    assert abs(traj45.states[-1, 0] - math.exp(-1.0)) <= 1e-7

    counted4, calls4 = counting_field(decay)
    integrate_rk4(counted4, np.array([1.0]), 0.0, 1.0, 1e-4)
    assert calls45["n"] < calls4["n"]


def test_rk45_handles_unstable_state_over_short_horizon():
    spec = builtin_system("ex2-timeinvariant")
    traj = integrate_rk45(vector_field(spec), np.array([3.0, 3.0]), 0.0, 5.0)
    assert traj.ok
    assert traj.times[-1] == 5.0


@pytest.mark.parametrize("call", [
    lambda: integrate_rk4(decay, np.array([1.0]), 1.0, 1.0, 1e-2),
    lambda: integrate_rk4(decay, np.array([1.0]), 2.0, 1.0, 1e-2),
    lambda: integrate_rk45(decay, np.array([1.0]), 2.0, 1.0),
])
def test_reversed_horizon_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_rk4_requires_positive_step():
    with pytest.raises(ValueError):
        integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, math.nan)


@pytest.mark.parametrize("t0, tf", [(0.0, math.nan), (math.nan, 1.0),
                                    (0.0, math.inf), (-math.inf, 0.0),
                                    (-1e308, 1e308)])
def test_rk4_requires_a_finite_horizon(t0, tf):
    with pytest.raises(ValueError, match="finite t0 < tf"):
        integrate_rk4(decay, np.array([1.0]), t0, tf, 0.1)


@pytest.mark.parametrize("t0, tf", [(0.0, math.nan), (math.nan, 1.0)])
def test_rk45_rejects_a_nan_horizon(t0, tf):
    # infinite horizons are tested out of process in test_cli, because a
    # regression there never leaves the step loop
    with pytest.raises(ValueError, match="finite t0 < tf"):
        integrate_rk45(decay, np.array([1.0]), t0, tf)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    for bad in (math.nan, math.inf):
        for key in ("step", "rtol", "atol"):
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(**{key: bad})
    cfg = IntegratorConfig(method="rk4-fixed", step=1e-2)
    traj = integrate(decay, np.array([1.0]), 0.0, 1.0, cfg)
    assert len(traj.times) == 101


# ---------------------------------------------------------------------------
# blow-up handling
# ---------------------------------------------------------------------------

def test_finite_time_escape_truncates_and_flags():
    # this system's anti-symmetric state component escapes in finite time
    field = vector_field(builtin_system("ex1-timevarying"))
    traj = integrate_rk45(field, np.array([-2.5, -5.0]), 0.0, 5.0)
    assert not traj.ok
    assert 0.3 < traj.t_end < 0.6
    assert np.all(np.isfinite(traj.states))


def test_rk4_also_truncates_on_non_finite():
    field = vector_field(builtin_system("ex1-timevarying"))
    traj = integrate_rk4(field, np.array([-2.5, -5.0]), 0.0, 5.0, 1e-4)
    assert traj.failure == "non_finite"
    assert traj.t_end < 5.0
    assert np.all(np.isfinite(traj.states))


def test_an_rk4_batch_holds_only_the_points_its_members_reach():
    # every pair escapes within the first 500 of the grid's 20,000 steps
    field = vector_field(builtin_system("ex1-timevarying"))
    x0 = np.random.default_rng(7).uniform(-5.0, 5.0, size=(10, 2, 2))
    cfg = IntegratorConfig(method="rk4-fixed", step=1e-3)
    tracemalloc.start()
    try:
        trajs = integrate_batch(field, x0, 0.0, 20.0, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(traj.failure == "non_finite" for traj in trajs)
    kept = sum(a.nbytes for traj in trajs
               for a in (traj.times, traj.states, traj.derivs))
    assert held <= 2 * kept


@pytest.mark.parametrize("system, field, shape, tf", [
    ("ex2-timeinvariant", lambda spec: augment(spec).field, (50, 4), 5.0),
    ("ex1-timevarying", vector_field, (50, 2, 2), 20.0),
])
def test_an_rk45_batch_peaks_near_the_points_it_keeps(system, field, shape,
                                                      tf):
    # each step logs the field's own k7, not a view of the step's stage
    # buffer, which would keep all seven stages alive (about 4x the kept
    # bytes at the peak)
    field = field(builtin_system(system))
    x0 = np.random.default_rng(7).uniform(-5.0, 5.0, size=shape)
    field(x0, np.zeros((len(x0),) + (1,) * (x0.ndim - 2)))  # compile first
    tracemalloc.start()
    try:
        trajs = integrate_batch(field, x0, 0.0, tf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for traj in trajs
               for a in (traj.times, traj.states, traj.derivs))
    assert peak <= 2.5 * kept


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_leaving_the_domain_truncates_as_non_finite(sqrt_decay, method):
    # x1 = (1 - t/2)^2 reaches 0 at t = 2; past it the kernel gives nan,
    # which ends this trajectory instead of raising
    traj = integrate(vector_field(sqrt_decay), np.array([1.0, 1.0]), 0.0, 5.0,
                     IntegratorConfig(method=method))
    assert traj.failure == "non_finite"
    assert traj.t_end == pytest.approx(2.0, abs=1e-2)
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.derivs))


# ---------------------------------------------------------------------------
# dense output
# ---------------------------------------------------------------------------

def test_sample_at_grid_points_is_bit_exact():
    field = vector_field(builtin_system("lti-remark1"))
    traj = integrate_rk45(field, np.array([1.0, -0.5]), 0.0, 2.0)
    for idx in (0, len(traj.times) // 2, len(traj.times) - 1):
        got = sample_at(traj, float(traj.times[idx]))
        np.testing.assert_array_equal(got, traj.states[idx])


def test_sample_at_one_point_trajectory_returns_the_start():
    # the field is infinite at the start, so the very first step fails
    field = vector_field(SystemSpec.from_strings(
        "instant", 2, 1, ["exp(exp(x1))", "-x2"], ["x2"]))
    traj = integrate_rk45(field, np.array([10.0, 1.0]), 0.0, 1.0)
    assert traj.failure == "non_finite"
    np.testing.assert_array_equal(traj.times, [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(sample_at(traj, 0.0), [10.0, 1.0])
        np.testing.assert_array_equal(sample_at(traj, np.zeros(3)),
                                      np.tile([10.0, 1.0], (3, 1)))


def test_sample_at_reproduces_linear_solutions_exactly():
    traj = integrate_rk4(lambda x, t: np.ones_like(x), np.array([0.0]),
                         0.0, 1.0, 1.0)
    assert sample_at(traj, 0.5)[0] == 0.5


def test_sample_at_outside_horizon():
    traj = integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        sample_at(traj, 2.0)
    with pytest.raises(ValueError):
        sample_at(traj, -0.1)


@pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
def test_sample_at_nan_time_is_outside_the_horizon(t):
    traj = integrate_rk45(decay, np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError, match="outside the trajectory horizon"):
        sample_at(traj, t)


def test_sample_at_vectorized_matches_scalar():
    field = vector_field(builtin_system("lti-remark1"))
    traj = integrate_rk45(field, np.array([2.0, -1.0]), 0.0, 3.0)
    ts = np.linspace(0.0, 3.0, 17)
    batch = sample_at(traj, ts)
    for i, t in enumerate(ts):
        np.testing.assert_array_equal(batch[i], sample_at(traj, float(t)))


def test_dense_output_is_fourth_order():
    field = vector_field(builtin_system("lti-remark1"))
    x0 = np.array([1.0, -2.0])

    def midpoint_err(step):
        traj = integrate_rk4(field, x0, 0.0, 1.0, step)
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        return np.max(np.abs(sample_at(traj, mids) - lti_analytic(x0, mids)))

    ratio = midpoint_err(0.05) / midpoint_err(0.025)
    assert 8.0 <= ratio <= 32.0


# ---------------------------------------------------------------------------
# output mapping
# ---------------------------------------------------------------------------

def _lti_sum_output():
    return SystemSpec.from_strings(
        "lti-sum", 2, 1, ["-2*x1 + x2", "x1 - 2*x2"], ["x1 + x2"])


def test_map_output_sum_of_states():
    spec = _lti_sum_output()
    traj = integrate_rk4(vector_field(spec), np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
    y = map_output(spec, traj)
    # y(t) = 2 e^{-t} along the symmetric eigenvector
    assert abs(y[-1, 0] - 2.0 * math.exp(-1.0)) <= 1e-7
    assert abs(y[-1, 0] - 0.7357589) <= 1e-7


def test_map_output_identity_returns_states():
    spec = SystemSpec.from_strings(
        "ident", 2, 2, ["-x1", "-x2"], ["x1", "x2"])
    traj = integrate_rk4(vector_field(spec), np.array([1.0, -1.0]), 0.0, 1.0, 0.01)
    np.testing.assert_array_equal(map_output(spec, traj), traj.states)


def test_map_output_time_weighted():
    spec = builtin_system("lti-remark1-badout")
    traj = integrate_rk4(vector_field(spec), np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
    y = map_output(spec, traj)
    # e^{2t} x1 with x1(t) = e^{-t} gives y(1) = e
    assert abs(y[-1, 0] - math.e) <= 1e-7


def test_map_output_dimension_mismatch():
    spec = _lti_sum_output()
    traj = integrate_rk4(decay, np.array([1.0]), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        map_output(spec, traj)


# ---------------------------------------------------------------------------
# cross-integrator and analytic-oracle consistency
# ---------------------------------------------------------------------------

def test_lti_analytic_oracle_batched():
    rng = np.random.default_rng(77)
    x0 = rng.uniform(-5.0, 5.0, size=(25, 2))
    field = vector_field(builtin_system("lti-remark1"))
    traj = integrate_rk4(field, x0, 0.0, 5.0, 1e-3)
    expected = lti_analytic(x0, traj.times[:, None])
    assert np.max(np.abs(traj.states - expected)) <= 1e-6


def test_batched_rk4_matches_individual_runs():
    field = vector_field(builtin_system("lti-remark1"))
    x0 = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]])
    batch = integrate_rk4(field, x0, 0.0, 1.0, 0.01)
    for i in range(3):
        single = integrate_rk4(field, x0[i], 0.0, 1.0, 0.01)
        np.testing.assert_array_equal(batch.states[:, i, :], single.states)


def test_adaptive_vs_fixed_lti_full_horizon():
    field = vector_field(builtin_system("lti-remark1"))
    x0 = np.array([3.0, -4.0])
    t45 = integrate_rk45(field, x0, 0.0, 10.0, rtol=1e-8, atol=1e-8)
    t4 = integrate_rk4(field, x0, 0.0, 10.0, 1e-4)
    diff = np.abs(sample_at(t45, t4.times[::50]) - t4.states[::50])
    assert np.max(diff) <= 1e-5


def test_adaptive_vs_fixed_time_varying_pre_escape():
    # the time-varying demo escapes around t ~ 0.43 from this start, so the
    # two integrators are compared on a window well inside the existence span
    field = vector_field(builtin_system("ex1-timevarying"))
    x0 = np.array([-2.5, -5.0])
    t45 = integrate_rk45(field, x0, 0.0, 0.35, rtol=1e-8, atol=1e-8)
    t4 = integrate_rk4(field, x0, 0.0, 0.35, 1e-4)
    assert t45.ok and t4.ok
    diff = np.abs(sample_at(t45, t4.times[::10]) - t4.states[::10])
    assert np.max(diff) <= 1e-5


def test_rk45_matches_scipy_dop853_on_its_own_grid():
    # a third integrator that shares no code with this package; bounds are
    # 10x the errors measured at rk45's default tolerances.  ex2's state is
    # unstable and amplifies the error, its output y = x1 + x2 is not
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def errors(name, x0, tf):
        spec = builtin_system(name)
        field = vector_field(spec)
        traj = integrate_rk45(field, np.array(x0), 0.0, tf)
        ref = integrate_ivp(lambda t, x: field(x, t), (0.0, tf), x0,
                            method="DOP853", rtol=1e-12, atol=1e-12,
                            t_eval=traj.times).y.T
        assert traj.ok and len(ref) == len(traj.times)
        err = np.abs(traj.states - ref)
        y = map_output(spec, traj)[:, 0] - ref.sum(axis=-1)
        return err.max(), (err / np.abs(ref)).max(), np.abs(y).max()

    assert errors("lti-remark1", [3.0, -4.0], 10.0)[0] <= 4e-8
    assert errors("ex1-timevarying", [-2.5, -5.0], 0.35)[1] <= 2.4e-7
    assert errors("ex2-timeinvariant", [3.0, 3.0], 5.0)[1] <= 4.1e-3
    assert errors("ex2-timeinvariant", [3.0, 3.0], 10.0)[2] <= 1.1e-4


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_round_trips_doubles_and_is_byte_stable():
    spec = _lti_sum_output()
    traj = integrate_rk4(vector_field(spec), np.array([1.0, 1.0]), 0.0, 0.5, 0.1)
    y = map_output(spec, traj)
    text = trajectory_csv(traj, outputs=y)
    assert text == trajectory_csv(traj, outputs=y)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,y1"
    assert len(lines) == 1 + len(traj.times)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == traj.times[-1]
    assert last[1] == traj.states[-1, 0]
    assert last[3] == y[-1, 0]


def test_csv_rejects_batched_trajectories():
    field = vector_field(builtin_system("lti-remark1"))
    traj = integrate_rk4(field, np.zeros((3, 2)), 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        trajectory_csv(traj)
