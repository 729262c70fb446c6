import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from occtl import lyapunov
from occtl.cli import main
from occtl.contraction import SamplingPlan, check_oes_variational
from occtl.lyapunov import (
    Bounds, CandidateV, CheckDomain, check_certificate, implied_rate,
    report_json, reverify_counterexample, vdot, vdot_fd,
)
from occtl.exprlang import evaluate
from occtl.odeint import IntegratorConfig, integrate
from occtl.sysmodel import (
    BUILTIN_NAMES, SystemSpec, augment, builtin_system,
)
from oracles import dual_vdot, stacked_sample_domain

V_SUM_SQ = CandidateV.from_string("(xi1 + xi2)^2")
V_NORM_SQ = CandidateV.from_string("xi1^2 + xi2^2")


def domain(samples=20_000, seed=1, x_range=10.0):
    return CheckDomain(x_box=((-x_range, x_range), (-x_range, x_range)),
                       t_range=(0.0, 2.0 * math.pi), samples=samples,
                       seed=seed)


def _drawn(n, dom, block=None):
    """The falsifier's draw of `dom` as (x, xi, t): its blocks of `block`
    rows (default `_BLOCK`) joined."""
    blocks = [(state[:, :n].copy(), xi.copy(), t.copy())
              for state, xi, t in lyapunov._draw_blocks(
                  n, dom, block or lyapunov._BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


# ---------------------------------------------------------------------------
# vdot
# ---------------------------------------------------------------------------

def test_vdot_lti_norm_certificate():
    spec = builtin_system("lti-remark1")
    got = vdot(spec, V_NORM_SQ, (0.3, -0.9), (1.0, 1.0), 0.0)
    assert got == pytest.approx(-4.0, abs=1e-12)   # = -2 V with V = 2


def test_vdot_time_invariant_demo_closed_form():
    # exact Jacobian gives Vdot = -2 (3 + cos(x1+x2) + sin(x1+x2)) V
    spec = builtin_system("ex2-timeinvariant")
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=2)
        xi = rng.uniform(-3, 3, size=2)
        u = x.sum()
        v = (xi.sum()) ** 2
        expected = -2.0 * (3.0 + math.cos(u) + math.sin(u)) * v
        got = vdot(spec, V_SUM_SQ, x, xi, 0.0)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert got == pytest.approx(vdot_fd(spec, V_SUM_SQ, x, xi, 0.0),
                                    rel=1e-4, abs=1e-5)


def test_vdot_time_varying_demo_closed_form():
    # exact Jacobian gives
    # Vdot = -2 (4 + sin t - cos(x1+x2) + sin(x1+x2) + 0.3 (x1+x2)^2) V
    spec = builtin_system("ex1-timevarying")
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(-4, 4, size=2)
        xi = rng.uniform(-3, 3, size=2)
        t = float(rng.uniform(0, 7))
        u = x.sum()
        v = (xi.sum()) ** 2
        coeff = 4.0 + math.sin(t) - math.cos(u) + math.sin(u) + 0.3 * u * u
        got = vdot(spec, V_SUM_SQ, x, xi, t)
        assert got == pytest.approx(-2.0 * coeff * v, rel=1e-12, abs=1e-12)


def test_vdot_constant_certificate_is_zero():
    spec = builtin_system("lti-remark1")
    got = vdot(spec, CandidateV.from_string("42.0"), (1.0, 2.0), (3.0, 4.0), 0.5)
    assert got == 0.0


def test_vdot_batched_matches_scalar():
    spec = builtin_system("ex2-timeinvariant")
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, size=(11, 2))
    xi = rng.uniform(-2, 2, size=(11, 2))
    t = rng.uniform(0, 3, size=11)
    batch = vdot(spec, V_SUM_SQ, x, xi, t)
    for i in range(11):
        assert batch[i] == pytest.approx(
            vdot(spec, V_SUM_SQ, x[i], xi[i], float(t[i])), rel=1e-14)


@pytest.mark.parametrize("x, xi, t", [
    ((0.3, -0.9), [[1.0, 1.0], [2.0, -2.0], [0.5, 3.0]], 0.7),
    ((0.3, -0.9), (1.0, 1.0), [0.0, 0.7, 2.5]),
    ([[0.3, -0.9], [1.5, 2.0], [-1.0, 0.25]], (1.0, 1.0), 0.7),
])
def test_vdot_broadcasts_a_single_point_against_a_batch(x, xi, t):
    # a single x with a batched xi or t gives the rows of the call with
    # every argument broadcast to the batch, bit for bit
    spec = builtin_system("ex1-timevarying")
    got = vdot(spec, V_SUM_SQ, x, xi, t)
    full = [np.broadcast_to(np.asarray(v, dtype=float), shape)
            for v, shape in ((x, (3, 2)), (xi, (3, 2)), (t, (3,)))]
    assert got.shape == (3,)
    assert got.tobytes() == vdot(spec, V_SUM_SQ, *full).tobytes()


def test_vdot_zero_partial_keeps_an_overflow():
    # Jf comes from compiled symbolic derivatives, which drop the zero
    # partial of the constant -0.1 instead of multiplying it by the
    # overflowed x1^3 (0 * inf would make the result nan)
    spec = SystemSpec.from_strings("cubic", 1, 1, ["-0.1*x1^3"], ["x1"])
    got = vdot(spec, CandidateV.from_string("x1*xi1^2"), [1e200], [1.0], 0.0)
    assert got == -math.inf


@pytest.mark.parametrize("system", ["ex1-timevarying", "ex2-timeinvariant"])
@pytest.mark.parametrize("certificate", [
    "(xi1 + xi2)^2", "(xi1 + xi2)^2 + 0.01*(x1^2 + x2^2)*xi1^2"])
def test_vdot_matches_the_dual_number_oracle_on_a_draw(system, certificate):
    spec = builtin_system(system)
    V = CandidateV.from_string(certificate)
    x, xi, t = _drawn(spec.n, domain(samples=100_000, seed=7))
    got = vdot(spec, V, x, xi, t)
    want = dual_vdot(spec, V, np.concatenate([x, xi], axis=-1), t)
    assert got.shape == (100_032,)
    assert got.tobytes() == want.tobytes()


def test_vdot_differentiates_abs_to_its_sign():
    # V = |xi1| + 2|xi2| on lti-remark1: Vdot = sign(xi1)(Jf xi)_1 +
    # 2 sign(xi2)(Jf xi)_2, with sign(0) = 0
    spec = builtin_system("lti-remark1")
    V = CandidateV.from_string("abs(xi1) + 2*abs(xi2)")
    assert vdot(spec, V, (0.0, 0.0), (1.0, -1.0), 0.0) == -3.0 - 2.0 * 3.0
    assert vdot(spec, V, (0.0, 0.0), (0.0, 1.0), 0.0) == -4.0
    assert vdot(spec, V, (0.0, 0.0), (0.0, 0.0), 0.0) == 0.0


def test_pointwise_vdot_compiles_the_variational_field_once(compile_calls):
    spec = builtin_system("ex2-timeinvariant")
    rng = np.random.default_rng(3)
    for _ in range(25):
        vdot(spec, V_SUM_SQ, rng.uniform(-2, 2, size=2),
             rng.uniform(-2, 2, size=2), 0.0)
    assert compile_calls == [3]   # (V, Jh xi, Vdot)


def test_candidate_variable_validation():
    spec = builtin_system("lti-remark1")
    with pytest.raises(ValueError, match="unknown variable"):
        vdot(spec, CandidateV.from_string("x3 + xi1"), (0.0, 0.0), (1.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

def test_sandwich_passes_for_time_varying_demo():
    report = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                               Bounds(1.0, 2.0, 0.0, 2.0, p=2.0), domain())[0]
    assert report.passed
    assert report.counterexample is None
    assert report.checked > 20_000      # probes come on top of the samples


def test_sandwich_tight_lower_bound_passes_at_equality():
    # alpha1 ||nu||^2 equals V exactly for this certificate: boundary case
    report = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                               Bounds(1.0, 2.0, 0.0, 2.0, p=2.0),
                               domain(samples=5_000, seed=3))[0]
    assert report.passed
    assert report.worst_margin >= -1e-9


def test_sandwich_finds_overtight_upper_bound():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 0.5, 0.0, 2.0, p=2.0)
    report = check_certificate(spec, V_SUM_SQ, bounds,
                               domain(samples=5_000))[0]
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce["upper_slack"] < -1e-9
    assert reverify_counterexample(spec, V_SUM_SQ, bounds, report) < -1e-6


def test_sandwich_then_decay_compile_each_kernel_once(compile_calls):
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 2.0)
    for _ in range(2):
        check_certificate(spec, V_SUM_SQ, bounds, domain(samples=200))
    vdot(spec, V_SUM_SQ, (0.5, -1.0), (1.0, 2.0), 0.25)
    # (V, Jh xi, Vdot), read by both conditions of both checks and by vdot
    assert compile_calls == [3]


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def test_decay_passes_for_time_varying_demo():
    report = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                               Bounds(1.0, 2.0, 0.0, 2.0, p=2.0), domain())[1]
    assert report.passed


def test_decay_passes_for_lti_norm_certificate():
    report = check_certificate(builtin_system("lti-remark1"), V_NORM_SQ,
                               Bounds(1.0, 1.0, 0.0, 2.0, p=2.0),
                               domain(samples=5_000))[1]
    assert report.passed
    assert report.worst_margin >= -1e-9   # equality along the slow mode


def test_decay_overclaimed_rate_is_falsified():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0, p=2.0)
    report = check_certificate(spec, V_SUM_SQ, bounds, domain())[1]
    assert not report.passed
    assert reverify_counterexample(spec, V_SUM_SQ, bounds, report) < -1e-6


def test_decay_monotone_in_claimed_rate():
    spec = builtin_system("ex1-timevarying")
    dom = domain(samples=5_000)
    for alpha4 in (2.0, 1.0):
        assert check_certificate(spec, V_SUM_SQ, Bounds(1.0, 2.0, 0.0, alpha4),
                                 dom)[1].passed


def test_decay_requires_alpha4():
    # judged alone, the decay takes its rate from alpha4; the time-invariant
    # form's decay, at rate alpha3, is judged at t = 0 by check_certificate
    with pytest.raises(ValueError, match="alpha4"):
        lyapunov.check_decay(builtin_system("lti-remark1"), V_NORM_SQ,
                             Bounds(1.0, 1.0, 2.0), domain(samples=10))


# ---------------------------------------------------------------------------
# time-invariant variant
# ---------------------------------------------------------------------------

def test_time_invariant_demo_certificate_passes():
    reports = check_certificate(
        builtin_system("ex2-timeinvariant"), V_SUM_SQ,
        Bounds(1.0, 2.0, 2.0, p=2.0), domain())
    assert [r.condition for r in reports] == ["sandwich", "decay"]
    assert all(r.passed for r in reports)


def test_time_invariant_rejects_time_varying_system():
    with pytest.raises(ValueError, match="time-varying"):
        check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                          Bounds(1.0, 2.0, 2.0), domain(samples=10))


def test_time_invariant_rejects_time_dependent_certificate():
    with pytest.raises(ValueError, match="t-independent"):
        check_certificate(
            builtin_system("ex2-timeinvariant"),
            CandidateV.from_string("exp(t)*(xi1 + xi2)^2"),
            Bounds(1.0, 2.0, 2.0), domain(samples=10))


def test_time_invariant_overclaimed_decay_fails():
    spec = builtin_system("ex2-timeinvariant")
    bounds = Bounds(1.0, 2.0, 12.0, p=2.0)
    sandwich, decay = check_certificate(spec, V_SUM_SQ, bounds,
                                        domain(samples=2_000))
    assert sandwich.passed and not decay.passed
    assert decay.counterexample["t"] == 0.0
    assert reverify_counterexample(spec, V_SUM_SQ, bounds, decay) < -1e-6


def test_reverify_takes_the_time_invariant_decay_rate_from_alpha3():
    spec = builtin_system("ex2-timeinvariant")
    dom = dataclasses.replace(domain(samples=1_000), t_range=(0.0, 0.0))
    varying = Bounds(1.0, 2.0, 0.0, 12.0)
    decay = check_certificate(spec, V_SUM_SQ, varying, dom)[1]
    assert not decay.passed
    assert reverify_counterexample(spec, V_SUM_SQ, Bounds(1.0, 2.0, 12.0),
                                   decay) \
        == reverify_counterexample(spec, V_SUM_SQ, varying, decay) < -1e-6


def test_reverify_refuses_a_condition_it_does_not_know():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0)
    decay = check_certificate(spec, V_SUM_SQ, bounds,
                              domain(samples=1_000))[1]
    assert not decay.passed
    with pytest.raises(ValueError, match="unknown condition 'bogus'"):
        reverify_counterexample(spec, V_SUM_SQ, bounds,
                                dataclasses.replace(decay, condition="bogus"))


@pytest.mark.parametrize("system", BUILTIN_NAMES)
def test_the_single_condition_checks_give_check_certificates_reports(system):
    # check_sandwich and check_decay remain only because bench/tracing.py
    # times the lyapunov layer through them: until it stops, each must give
    # the bytes of its report of the one entry point
    spec = builtin_system(system)
    dom = domain(samples=1_000, seed=4, x_range=4.0)
    for certificate in ("(xi1 + xi2)^2", "abs(xi1) + 2*abs(xi2)",
                        "exp(-0.5*t)*(1 + 0.1*x1^2)*(xi1 + xi2)^2"):
        V = CandidateV.from_string(certificate)
        for bounds in (Bounds(1.0, 2.0, 0.0, 2.0),
                       Bounds(0.25, 8.0, 0.5, 3.0, p=1.5)):
            reports = check_certificate(spec, V, bounds, dom)
            alone = [check(spec, V, bounds, dom) for check
                     in (lyapunov.check_sandwich, lyapunov.check_decay)]
            assert [json.dumps(report_json(r)) for r in alone] \
                == [json.dumps(report_json(r)) for r in reports]


# ---------------------------------------------------------------------------
# implied rate
# ---------------------------------------------------------------------------

def test_implied_rate_time_varying_constants():
    c, alpha = implied_rate(Bounds(1.0, 2.0, 0.0, 2.0, p=2.0))
    assert alpha == pytest.approx(1.0, abs=0)
    assert c == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c == pytest.approx(1.41421, abs=1e-5)


def test_implied_rate_time_invariant_constants():
    c, alpha = implied_rate(Bounds(1.0, 2.0, 2.0, p=2.0))
    assert alpha == pytest.approx(1.0, abs=0)
    assert c == pytest.approx(math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("kw", [
    dict(x_box=((0.0, math.inf), (0.0, 1.0))),
    dict(x_box=((-1e308, 1e308), (0.0, 1.0))),
    dict(t_range=(0.0, math.inf)),
    dict(t_range=(0.0, math.nan)),
    dict(xi_radii=(1.0, math.inf)),
    dict(xi_radii=(math.nan,)),
    dict(xi_radii=()),
    dict(samples=0),
])
def test_domain_rejects_non_finite_ranges(kw):
    base = dict(x_box=((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        CheckDomain(**{**base, **kw})


def test_domain_rejects_a_negative_seed_and_keeps_seeds_past_64_bits():
    box = ((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        CheckDomain(x_box=box, seed=-1)
    big = CheckDomain(x_box=box, samples=10, seed=2 ** 64)
    assert check_certificate(builtin_system("lti-remark1"), V_NORM_SQ,
                             Bounds(0.5, 2.0, 1.0), big)[0].checked > 0


def test_a_draw_too_large_to_allocate_is_a_value_error_naming_the_count():
    # numpy refuses 10**15 rows of directions at once, so nothing is allocated
    with pytest.raises(ValueError, match=f"{10 ** 15} samples are too many"):
        check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                          Bounds(1.0, 2.0, 0.0, 2.0), domain(samples=10 ** 15))


@pytest.mark.parametrize("seed", [1.5, np.float64(2.7)])
def test_domain_rejects_a_non_integer_seed_naming_it(seed):
    with pytest.raises(ValueError,
                       match=re.escape(f"seed must be an integer, got {seed!r}")):
        CheckDomain(x_box=((-1.0, 1.0), (-1.0, 1.0)), seed=seed)


@pytest.mark.parametrize("field", ["pairs", "samples"])
@pytest.mark.parametrize("count", [2.5, "3", 0])
def test_a_count_must_be_a_positive_integer(field, count):
    box = ((-1.0, 1.0),)
    record = SamplingPlan(box=box) if field == "pairs" \
        else CheckDomain(x_box=box)
    message = "need at least one" if count == 0 \
        else re.escape(f"{field} must be an integer, got {count!r}")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(record, **{field: count})


@pytest.mark.parametrize("seed", [np.int64(1), np.uint64(1), True])
def test_domain_takes_numpy_and_bool_seeds(seed):
    box = ((-1.0, 1.0), (-1.0, 1.0))
    drawn = _drawn(2, CheckDomain(x_box=box, samples=10, seed=seed))
    expected = _drawn(2, CheckDomain(x_box=box, samples=10, seed=1))
    for got, want in zip(drawn, expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("check, alpha4", [
    (check_certificate, 2.0),
    (lyapunov.check_sandwich, 2.0),
    (lyapunov.check_decay, 2.0),
    (check_certificate, None),
], ids=["check_certificate", "check_sandwich", "check_decay",
        "check_certificate-time-invariant"])
@pytest.mark.parametrize("intervals", [1, 3])
def test_checks_reject_a_box_of_another_dimension(check, alpha4, intervals):
    dom = CheckDomain(x_box=((-1.0, 1.0),) * intervals, samples=10)
    with pytest.raises(ValueError, match=f"box has {intervals} intervals, "
                                         "system has n=2"):
        check(builtin_system("lti-remark1"), V_NORM_SQ,
              Bounds(1.0, 2.0, 1.0, alpha4), dom)


@pytest.mark.parametrize("kw", [
    dict(alpha1=math.inf, alpha2=math.inf),
    dict(alpha3=math.nan),
    dict(alpha3=0.0, alpha4=math.inf),
    dict(p=math.nan),
    dict(p=math.inf),
])
def test_bounds_reject_non_finite_constants(kw):
    with pytest.raises(ValueError, match="finite"):
        Bounds(**{**dict(alpha1=0.5, alpha2=2.0, alpha3=1.0), **kw})


@pytest.mark.parametrize("kw, message", [
    (dict(alpha1=0.0), "alpha1 and alpha2 must be positive"),
    (dict(alpha2=-1.0), "alpha1 and alpha2 must be positive"),
    (dict(alpha3=-0.5), "alpha3 must be nonnegative"),
    (dict(p=0.5), "p must be at least 1"),
])
def test_bounds_reject_constants_out_of_range(kw, message):
    with pytest.raises(ValueError, match=message):
        Bounds(**{**dict(alpha1=0.5, alpha2=2.0, alpha3=1.0), **kw})


def test_a_passing_report_has_no_counterexample_to_reverify():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 2.0)
    report = check_certificate(spec, V_SUM_SQ, bounds, domain(samples=100))[0]
    assert report.passed
    with pytest.raises(ValueError, match="report has no counterexample"):
        reverify_counterexample(spec, V_SUM_SQ, bounds, report)


def test_degenerate_rate_rejected():
    with pytest.raises(ValueError):
        Bounds(1.0, 2.0, 2.0, 2.0, p=2.0)   # alpha3 must stay below alpha4
    with pytest.raises(ValueError):
        implied_rate(Bounds(1.0, 2.0, 0.0, None, p=2.0))


def test_implied_rate_feeds_empirical_threshold():
    # the certificate promises alpha = 1; the empirical fit should not sit
    # far below it
    _, alpha = implied_rate(Bounds(1.0, 2.0, 2.0, p=2.0))
    verdict = check_oes_variational(
        builtin_system("ex2-timeinvariant"),
        SamplingPlan(box=((-5.0, 5.0), (-5.0, 5.0)), pairs=8, seed=2, tf=5.0))
    assert verdict.holds
    assert verdict.min_alpha >= 0.9 * alpha


# ---------------------------------------------------------------------------
# consistency along integrated trajectories
# ---------------------------------------------------------------------------

def test_vdot_matches_time_derivative_along_trajectories():
    spec = builtin_system("ex2-timeinvariant")
    aug = augment(spec)
    cfg = IntegratorConfig(method="rk4-fixed", step=5e-4)
    traj = integrate(aug.field, np.array([1.0, -0.5, 0.7, 0.3]), 0.0, 1.0, cfg)
    states, times = traj.states, traj.times
    v_series = (states[:, 2] + states[:, 3]) ** 2
    for i in range(50, len(times) - 50, 97):
        dv_num = (v_series[i + 1] - v_series[i - 1]) / (times[i + 1] - times[i - 1])
        dv = vdot(spec, V_SUM_SQ, states[i, :2], states[i, 2:], float(times[i]))
        assert dv_num == pytest.approx(dv, rel=1e-5, abs=1e-8)


def test_certified_decay_bounds_integrated_certificate():
    # with the decay condition passing at rate 2, V along any augmented
    # trajectory must sit under V(0) e^{-2 t} (up to solver slack)
    spec = builtin_system("ex1-timevarying")
    assert check_certificate(spec, V_SUM_SQ, Bounds(1.0, 2.0, 0.0, 2.0),
                             domain(samples=2_000))[1].passed
    aug = augment(spec)
    rng = np.random.default_rng(17)

    def assert_bounded(traj):
        xi = traj.states[..., 2:]
        v_series = (xi[..., 0] + xi[..., 1]) ** 2
        shape = (-1,) + (1,) * (v_series.ndim - 1)
        bound = v_series[0] * np.exp(-2.0 * traj.times).reshape(shape) \
            * (1.0 + 1e-6) + 1e-12
        # xi1 + xi2 cancels a growing carrier near the state escape; below
        # the roundoff level of that cancellation V carries no information
        noise = (64.0 * np.finfo(float).eps
                 * np.linalg.norm(xi, axis=-1)) ** 2
        keep = v_series > noise
        assert keep.sum() > 100
        assert np.all(v_series[keep] <= bound[keep])

    # ten full-depth individual runs (each ends at its own escape time)
    for _ in range(10):
        x0 = rng.uniform(-3, 3, size=2)
        xi0 = rng.uniform(-1, 1, size=2)
        assert_bounded(integrate(aug.field, np.concatenate([x0, xi0]),
                                 0.0, 5.0))
    # and a hundred batched ones on the shared pre-escape span
    starts = np.concatenate([rng.uniform(-3, 3, size=(100, 2)),
                             rng.uniform(-1, 1, size=(100, 2))], axis=1)
    assert_bounded(integrate(aug.field, starts, 0.0, 5.0))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_reports_are_deterministic():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 2.0)
    r1 = check_certificate(spec, V_SUM_SQ, bounds, domain(samples=3_000))[0]
    r2 = check_certificate(spec, V_SUM_SQ, bounds, domain(samples=3_000))[0]
    assert report_json(r1) == report_json(r2)
    assert r1.worst_margin == r2.worst_margin


def test_report_json_shape():
    report = check_certificate(builtin_system("lti-remark1"), V_NORM_SQ,
                               Bounds(1.0, 1.0, 0.0, 2.0),
                               domain(samples=500))[1]
    doc = report_json(report)
    assert set(doc) == {"condition", "passed", "checked", "worst_margin",
                        "counterexample"}
    assert doc["passed"] is True and doc["counterexample"] is None
    # the keys are the record's fields, and a report whose numbers are all
    # finite comes back from its JSON
    falsified = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                                  Bounds(1.0, 0.5, 0.0, 2.0),
                                  domain(samples=2_000))[0]
    assert not falsified.passed
    for r in (report, falsified):
        assert list(report_json(r)) == [f.name for f in dataclasses.fields(r)]
        assert lyapunov.FalsificationReport(**report_json(r)) == r


def test_nan_slack_is_a_violation_reported_as_null():
    # at |xi| = 1e200 the certificate overflows: the random samples have
    # nan slack (the unit-axis probes do not)
    huge = CheckDomain(x_box=((-1.0, 1.0), (-1.0, 1.0)), samples=300,
                       xi_radii=(1e200,))
    report = check_certificate(builtin_system("ex1-timevarying"), V_SUM_SQ,
                               Bounds(1.0, 2.0, 0.0, 2.0), huge)[1]
    assert not report.passed
    assert math.isnan(report.worst_margin)
    doc = report_json(report)
    assert doc["worst_margin"] is None
    assert doc["counterexample"]["slack"] is None
    json.dumps(doc, allow_nan=False)


def test_counterexample_prefers_a_numeric_slack():
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0)
    mixed = CheckDomain(x_box=((-5.0, 5.0), (-5.0, 5.0)), samples=2_000,
                        xi_radii=(1.0, 1e200))
    report = check_certificate(spec, V_SUM_SQ, bounds, mixed)[1]
    assert math.isnan(report.worst_margin)
    assert report.counterexample["slack"] < -1e-9
    assert reverify_counterexample(spec, V_SUM_SQ, bounds, report) < -1e-6


# ---------------------------------------------------------------------------
# one draw per command, judged in row blocks
# ---------------------------------------------------------------------------

def _probe_rows(dom: CheckDomain) -> int:
    """Rows the deterministic probes add to a draw of `dom`."""
    one = dataclasses.replace(dom, samples=1)
    return len(_drawn(2, one)[0]) - 1


def _injecting(monkeypatch, rows: dict) -> list:
    """Wrap `_draw_blocks` so that each row of the draw named in `rows`
    takes the x, xi and t given for it ({"x": .., "xi": .., "t": ..}, each
    optional) in whichever block holds it; returns the domains drawn."""
    real, draws = lyapunov._draw_blocks, []

    def draw(n, dom, block):
        draws.append(dom)
        start = 0
        for state, xi, t in real(n, dom, block):
            for row, values in rows.items():
                i = row - start
                if 0 <= i < len(t):
                    state[i, :n] = values.get("x", state[i, :n])
                    xi[i] = values.get("xi", xi[i])
                    state[i, n:] = xi[i]
                    t[i] = values.get("t", t[i])
            start += len(t)
            yield state, xi, t

    monkeypatch.setattr(lyapunov, "_draw_blocks", draw)
    return draws


@pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_row_blocks_judge_as_one_pass(monkeypatch, blocks):
    # the draw has a multiple of the block size plus a few rows; a nan
    # slack and a tie for the least slack (xi and -xi give the same bits)
    # sit at its end, across the last block boundary, and the reports must
    # equal those of one block holding the whole draw
    times, extra = blocks
    rows = times * lyapunov._BLOCK + extra
    dom = domain(seed=5)
    dom = dataclasses.replace(dom, samples=rows - _probe_rows(dom))
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0)
    # scaling xi by 1e3 scales the decay slack by 1e6: the worst sample
    # scaled stays the worst
    worst = check_certificate(spec, V_SUM_SQ, bounds, dom)[1].counterexample
    scaled = np.multiply(1e3, worst["xi"])
    real = lyapunov._draw_blocks
    _injecting(monkeypatch, {
        rows // 2: {"x": worst["x"], "xi": scaled, "t": worst["t"]},
        rows - 2: {"xi": 1e200},
        rows - 1: {"x": worst["x"], "xi": -scaled, "t": worst["t"]}})
    block = lyapunov._BLOCK

    def blocked_as_whole(spec, bounds):
        monkeypatch.setattr(lyapunov, "_BLOCK", block)
        blocked = check_certificate(spec, V_SUM_SQ, bounds, dom)
        monkeypatch.setattr(lyapunov, "_BLOCK", rows + 1)
        whole = check_certificate(spec, V_SUM_SQ, bounds, dom)
        assert [report_json(r) for r in blocked] == \
            [report_json(r) for r in whole]
        return blocked

    decay = blocked_as_whole(spec, bounds)[1]
    assert decay.checked == rows and math.isnan(decay.worst_margin)
    # the first of the tied least slacks, not the nan one
    assert decay.counterexample["xi"] == [1e3 * c for c in worst["xi"]]
    # a violated sandwich, whose named terms include the scalar t0, and the
    # time-invariant decay: the counterexample's named terms are rebuilt
    # from its own block, which at two blocks is the second
    sandwich, _ = blocked_as_whole(spec, Bounds(1.0, 0.5, 0.0, 12.0))
    # the time-invariant form draws at t = 0, with one probe time: its draw
    # is given as many rows, and the same rows at t = 0
    dom = dataclasses.replace(dom, t_range=(0.0, 0.0))
    dom = dataclasses.replace(dom, samples=rows - _probe_rows(dom))
    monkeypatch.setattr(lyapunov, "_draw_blocks", real)
    _injecting(monkeypatch, {
        rows // 2: {"x": worst["x"], "xi": scaled, "t": 0.0},
        rows - 2: {"xi": 1e200},
        rows - 1: {"x": worst["x"], "xi": -scaled, "t": 0.0}})
    _, invariant = blocked_as_whole(builtin_system("ex2-timeinvariant"),
                                    Bounds(1.0, 2.0, 12.0))
    assert invariant.checked == rows
    for report in (sandwich, invariant):
        assert report.counterexample["xi"] == [1e3 * c for c in worst["xi"]]
    assert sandwich.counterexample["t0"] == 0.0
    assert sandwich.counterexample["xi_norm"] == pytest.approx(
        np.linalg.norm(sandwich.counterexample["xi"]), rel=1e-15)
    assert sandwich.counterexample["upper_slack"] < 0
    assert invariant.counterexample["t"] == 0.0
    assert invariant.counterexample["slack"] < 0


def test_a_block_tie_goes_to_the_lower_index(monkeypatch):
    # xi and -xi give the same bits, so a sample copied into two blocks
    # with xi negated in one holds the least slack twice; the counterexample
    # is the lower row, the one np.argmin over the slacks of the whole draw
    # picks (computed here through the dual-number oracle)
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0)
    dom = domain(samples=1_000, seed=5)
    worst = check_certificate(spec, V_SUM_SQ, bounds, dom)[1].counterexample
    monkeypatch.setattr(lyapunov, "_BLOCK", 64)
    real = lyapunov._draw_blocks
    scaled = np.multiply(1e3, worst["xi"])
    for low, high in ((100, 900), (900, 100)):
        monkeypatch.setattr(lyapunov, "_draw_blocks", real)
        _injecting(monkeypatch, {
            low: {"x": worst["x"], "xi": scaled, "t": worst["t"]},
            high: {"x": worst["x"], "xi": -scaled, "t": worst["t"]}})
        report = check_certificate(spec, V_SUM_SQ, bounds, dom)[1]
        x, xi, t = _drawn(spec.n, dom)
        v = evaluate(V_SUM_SQ.expr, {"xi1": xi[:, 0], "xi2": xi[:, 1]})
        with np.errstate(all="ignore"):
            slack = -bounds.alpha4 * v - dual_vdot(
                spec, V_SUM_SQ, np.concatenate([x, xi], axis=-1), t)
        bad = np.flatnonzero(~(slack >= -lyapunov._tolerance(v)))
        first = bad[np.argmin(np.where(np.isnan(slack[bad]), np.inf,
                                       slack[bad]))]
        assert first == min(low, high)
        assert report.counterexample["xi"] == list(xi[first])
        assert report.counterexample["slack"] == slack[first]
        assert report.worst_margin == np.min(slack)


def test_decay_is_nan_where_f_is_undefined_and_v_ignores_x():
    # dV/dx1 = 0 stays a product with f, so at x1 < 0, where ln(x1) is
    # undefined, Vdot is nan and every sample a nan-slack violation
    spec = SystemSpec.from_strings("log", 1, 1, ["ln(x1)"], ["x1"])
    V = CandidateV.from_string("xi1^2")
    dom = CheckDomain(x_box=((-2.0, -1.0),), samples=100, seed=3)
    report = check_certificate(spec, V, Bounds(1.0, 2.0, 0.0, 2.0), dom)[1]
    assert not report.passed and math.isnan(report.worst_margin)
    assert math.isnan(report.counterexample["slack"])
    assert math.isnan(report.counterexample["vdot"])
    assert report_json(report)["counterexample"]["slack"] is None
    x, xi, t = _drawn(1, dom)
    assert np.all(np.isnan(vdot(spec, V, x, xi, t)))
    assert np.all(np.isnan(dual_vdot(spec, V,
                                     np.concatenate([x, xi], axis=-1), t)))
    # where f overflows, 0.0*inf is nan too: without the products every
    # Vdot here would be finite, as Jf xi = 3 x1^2 xi1 stays below 1e208
    spec = SystemSpec.from_strings("cubic", 1, 1, ["x1^3"], ["x1"])
    dom = CheckDomain(x_box=((-1e103, 1e103),), samples=100, seed=3)
    report = check_certificate(spec, V, Bounds(1.0, 2.0, 0.0, 2.0), dom)[1]
    assert not report.passed and math.isnan(report.worst_margin)


def test_block_layout_changes_no_bit():
    # each block's state is a column-major buffer; the kernel gives the
    # bits it gives on the row-major stack of x and xi
    spec = builtin_system("ex1-timevarying")
    x, xi, t = _drawn(spec.n, domain(samples=4096, seed=7))
    rows = np.concatenate([x, xi], axis=-1)
    kernel = lyapunov._kernel(spec, V_SUM_SQ)
    with np.errstate(all="ignore"):
        assert kernel(rows, t).tobytes() \
            == kernel(np.asfortranarray(rows), t).tobytes()


@pytest.mark.parametrize("n, kw", [
    (1, {}), (2, {}), (3, {}), (7, {}),
    (2, dict(t_range=(1.5, 1.5))),
    (2, dict(xi_radii=(2.5,))),
    (3, dict(samples=1_001, xi_radii=(0.5, 2.0))),
    (2, dict(seed=2 ** 63 + 11)),
    (8, {}),   # numpy sums the squares of a row of 8 or more pairwise
    (8, dict(samples=999, xi_radii=(0.5, 1.0, 2.0, 4.0))),
])
def test_draw_fills_the_bytes_of_the_stacked_draw(n, kw):
    # blocks of one and three rows, of the default size, larger than the
    # draw, and ending at row s, where the random rows end and the probe
    # rows begin
    dom = CheckDomain(**{**dict(x_box=tuple((-1.0 - i, 2.0 + 0.5 * i)
                                            for i in range(n)),
                                samples=1_000, seed=7), **kw})
    want = stacked_sample_domain(n, dom)
    for block in (1, 3, lyapunov._BLOCK, len(want[2]) + 1, dom.samples):
        got = _drawn(n, dom, block)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(1, 21))
def test_row_norms_are_numpys_row_norms_bit_for_bit(n):
    # numpy sums a C-order row of fewer than 8 left to right and a longer
    # one pairwise; _row_norms must give its C-order bits on every layout
    # the falsifier hands it, and must fail here if numpy moves that switch
    rng = np.random.default_rng(n)
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e200]
    rows = np.concatenate([
        rng.standard_normal((1000, n)),
        rng.choice(specials, (200, n)) * rng.choice([1.0, -1.0], (200, n)),
        np.array(specials)[:, np.newaxis].repeat(n, axis=1)])
    rows[1000:1100, 0] = rng.standard_normal(100)
    wide = np.zeros((len(rows), 2 * n + 1), order="F")
    wide[:, n:2 * n] = rows
    spaced = np.zeros((2 * len(rows), n))
    spaced[::2] = rows
    with np.errstate(all="ignore"):   # 1e200 squared overflows
        want = np.linalg.norm(rows, axis=-1)
        for a in (rows, np.asfortranarray(rows), wide[:, n:2 * n],
                  spaced[::2]):
            assert lyapunov._row_norms(a).tobytes() == want.tobytes()
        left_to_right = np.sqrt(sum(column * column for column in rows.T))
    assert (left_to_right.tobytes() == want.tobytes()) == (n < 8)


def test_each_blocks_xi_is_a_view_of_its_states_xi_columns():
    # the draw normalises xi where the kernel reads it, a column at a time
    for block in (1, 3, lyapunov._BLOCK):
        for state, xi, t in lyapunov._draw_blocks(2, domain(samples=5_000),
                                                  block):
            assert xi.flags.f_contiguous and xi.shape == (len(t), 2)
            assert np.shares_memory(xi, state[:, 2:])
            assert not np.shares_memory(xi, state[:, :2])


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_check_holds_the_draws_directions_and_one_block():
    # x and t are drawn into buffers of one block and each block is judged
    # as it comes, so of a failing check only the xi directions, 8n bytes
    # a sample, grow with the draw
    spec = builtin_system("ex1-timevarying")
    bounds = Bounds(1.0, 2.0, 0.0, 12.0)
    check_certificate(spec, V_SUM_SQ, bounds, domain(samples=10))
    peaks = []
    for samples in (100_000, 400_000):
        reports = []
        peaks.append(_traced_peak(lambda: reports.extend(check_certificate(
            spec, V_SUM_SQ, bounds, domain(samples=samples, seed=7)))))
        assert not reports[1].passed
    assert peaks[1] - peaks[0] <= 1.25 * 300_000 * 8 * spec.n


@pytest.mark.parametrize("alpha4", [["--alpha4", "2"], []])
def test_one_lyapunov_command_draws_once_and_compiles_v_once(
        monkeypatch, compile_calls, capsys, alpha4):
    draws, v_compiles = _injecting(monkeypatch, {}), []
    real_compile = lyapunov.compile_expr

    def compile_v(exprs, names):
        v_compiles.append(exprs)
        return real_compile(exprs, names)
    monkeypatch.setattr(lyapunov, "compile_expr", compile_v)
    system = "ex1-timevarying" if alpha4 else "ex2-timeinvariant"
    code = main(["lyapunov", "--system", system, "--V", "(xi1 + xi2)^2",
                 "--alpha1", "1", "--alpha2", "2", "--alpha3", "1", *alpha4,
                 "--samples", "3000"])
    checks = json.loads(capsys.readouterr().out)["results"]["checks"]
    assert code == 0
    assert [c["condition"] for c in checks] == ["sandwich", "decay"]
    assert len(draws) == 1 and len(v_compiles) == 1
    assert compile_calls == [3]   # (V, Jh xi, Vdot)

