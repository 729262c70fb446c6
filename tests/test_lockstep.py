"""The lockstep batch against the single-start loops it replaced.

`integrate_batch` steps every member at once, each with its own time, step,
step floor and failure.  Its results must be what each member gets alone:
here every member is compared, bit for bit, with the parent loops kept in
`oracles.serial_rk45` and `oracles.serial_rk4`, on random smooth systems
(the `wild`-off trees of `test_exprlang`), member counts, horizons, member
shapes and both methods.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occtl.contraction import (
    SamplingPlan, Verdict, check_oes_equilibrium, check_oes_variational,
    check_output_contraction, check_partial_contraction, simulate_pair,
)
from occtl.odeint import IntegratorConfig, integrate, integrate_batch
from occtl.sysmodel import SystemSpec, augment, validate, vector_field

from oracles import serial_rk4, serial_rk45
from test_exprlang import _random_tree

METHODS = ("rk45-adaptive", "rk4-fixed")


def _random_system(seed: int) -> SystemSpec:
    rng = np.random.default_rng(seed)
    return validate(SystemSpec(
        "random", 2, 1, tuple(_random_tree(rng, depth=3) for _ in range(2)),
        (_random_tree(rng, depth=3),)))


class _OverBudget(Exception):
    pass


def _budgeted(field, calls: int):
    """`field`, raising _OverBudget after `calls` calls: a random system
    can be stiff enough to need millions of steps."""
    left = [calls]

    def limited(x, t):
        left[0] -= 1
        if left[0] < 0:
            raise _OverBudget
        return field(x, t)
    return limited


def _serial(field, x0, t0, tf, cfg):
    if cfg.method == "rk4-fixed":
        return serial_rk4(field, x0, t0, tf, cfg.step)
    return serial_rk45(field, x0, t0, tf, cfg.rtol, cfg.atol)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.tobytes()


def _assert_same(traj, ref):
    assert traj.failure == ref.failure
    assert (traj.t0, traj.tf) == (ref.t0, ref.tf)
    for name in ("times", "states", "derivs"):
        assert _bits(getattr(traj, name)) == _bits(getattr(ref, name)), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), members=st.integers(1, 5),
       t0=st.sampled_from([0.0, -1.5, 2.0]), span=st.floats(0.05, 2.0),
       method=st.sampled_from(METHODS),
       shape=st.sampled_from(["flat", "pair", "variational"]))
def test_batch_matches_the_serial_loops_bit_for_bit(seed, members, t0, span,
                                                    method, shape):
    spec = _random_system(seed)
    rng = np.random.default_rng(seed)
    if shape == "variational":
        field, x0s = augment(spec).field, rng.uniform(-2, 2, (members, 4))
    else:
        field = vector_field(spec)
        x0s = rng.uniform(-2, 2, (members,) + ((2, 2) if shape == "pair"
                                              else (2,)))
    cfg = IntegratorConfig(method=method, step=span / 64, rtol=1e-6,
                           atol=1e-6)
    try:
        # each serial run takes at most as many steps as the batch
        batch = integrate_batch(_budgeted(field, 3000), x0s, t0, t0 + span,
                                cfg)
    except _OverBudget:
        assume(False)
    assert len(batch) == members
    for x0, traj in zip(x0s, batch):
        _assert_same(traj, _serial(field, x0, t0, t0 + span, cfg))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), tf=st.floats(0.1, 2.0))
def test_every_checker_returns_a_verdict_on_random_systems(seed, tf):
    spec = _random_system(seed)
    plan = SamplingPlan(box=((-2, 2), (-2, 2)), pairs=3, seed=seed, tf=tf)
    # the fixed step bounds the work on a stiff system
    cfg = IntegratorConfig(method="rk4-fixed", step=tf / 64)
    verdicts = [check(spec, plan, cfg) for check in (
        check_output_contraction, check_partial_contraction,
        check_oes_variational)]
    if spec.time_invariant:
        verdicts.append(check_oes_equilibrium(spec, [0.0], plan, cfg))
    for verdict in verdicts:
        assert isinstance(verdict, Verdict) and verdict.pairs == 3
    # each batched pair is the pair integrated on its own
    for r in verdicts[0].results:
        alone = simulate_pair(spec, r.x0, r.partner, plan.t0, plan.tf, cfg)
        assert _bits(r.series.d) == _bits(alone.d)
        assert r.series.truncated == alone.truncated


@pytest.mark.parametrize("method", METHODS)
def test_a_member_leaving_the_domain_leaves_its_siblings_alone(sqrt_decay,
                                                               method):
    # x1 = (sqrt(a) - t/2)^2 reaches 0 at t = 2 sqrt(a): at t = 2 for the
    # middle member, after tf = 5 for the others
    field = vector_field(sqrt_decay)
    x0s = np.array([[9.0, 1.0], [1.0, 1.0], [16.0, -1.0]])
    cfg = IntegratorConfig(method=method)
    batch = integrate_batch(field, x0s, 0.0, 5.0, cfg)
    assert [traj.failure for traj in batch] == [None, "non_finite", None]
    assert batch[1].t_end == pytest.approx(2.0, abs=1e-2)
    assert batch[0].t_end == batch[2].t_end == 5.0
    for x0, traj in zip(x0s, batch):
        _assert_same(traj, integrate(field, x0, 0.0, 5.0, cfg))
        _assert_same(traj, _serial(field, x0, 0.0, 5.0, cfg))


def test_batch_rejects_a_missing_member_axis():
    with pytest.raises(ValueError, match="member"):
        integrate_batch(lambda x, t: -x, np.float64(1.0), 0.0, 1.0)
    with pytest.raises(ValueError, match="member"):
        integrate_batch(lambda x, t: -x, np.zeros((0, 2)), 0.0, 1.0)


def test_one_member_sees_its_bare_state_and_time():
    # single-start callers keep handing fields a state and a scalar time
    seen = []

    def field(x, t):
        seen.append((np.shape(x), np.ndim(t)))
        return -x
    for method in METHODS:
        integrate(field, np.array([1.0, 2.0]), 0.0, 0.1,
                  IntegratorConfig(method=method, step=0.05))
    assert set(seen) == {((2,), 0)}


@pytest.mark.parametrize("member, t_shape", [((2,), (3,)), ((2, 2), (3, 1))])
def test_members_get_per_member_times_that_broadcast(member, t_shape):
    seen = set()

    def field(x, t):
        seen.add((x.shape, np.shape(t)))
        return -x
    integrate_batch(field, np.ones((3,) + member), 0.0, 0.1)
    assert seen == {((3,) + member, t_shape)}
