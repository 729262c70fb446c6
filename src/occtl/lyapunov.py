"""Sampling falsification of Lyapunov-style certificates for output decay.

A candidate certificate V(x, xi, t) together with constants
(alpha1, alpha2, alpha3, alpha4, p) is checked against two conditions:

* sandwich:  alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)},
  where nu = Jh(x, t) xi is the variational output;
* decay:     Vdot <= -alpha4 V, with
  Vdot = dV/dt + dV/dx f + dV/dxi (Jf xi).

For time-invariant systems the corollary variant (leave alpha4 unset) is
the same two conditions judged at t = t0 = 0, so without the exponential
weight, with alpha3 as the decay rate.  `check_certificate`, the entry
point, judges both conditions on one draw of the domain; `check_sandwich`
and `check_decay` judge one condition each through the same pipeline, kept
only for bench/tracing.py, which times the lyapunov layer through them.
Every check reads the one kernel of the candidate's V, nu and Vdot,
whatever its conditions: nu is the symbolic Jh xi and Vdot one symbolic
tree of V's partials (abs differentiates to sign), f and Jf xi, so subtrees
they share are computed once.  The draw is made and judged in
blocks of `_BLOCK` rows that stay in cache: each block's (x, xi) state is
written into one column-major buffer of the check, xi normalised in place
there, the kernel is called once on it, and each condition keeps only the
block's least slack and its violated row of least slack, with that row's
named terms; of the draw only its raw xi directions are kept whole.  The
norms of the xi and nu rows, a few numbers wide, are summed a column at a
time in the order numpy sums such a row (`_row_norms`), not by numpy's loop
per row.  The kernel has no domain guards, so a sample where f, h or V is
undefined, or overflows, gets a nan slack, which counts as a violation of
that sample instead of failing the run.  To keep that where V does not
depend on some x_i, Vdot always multiplies f_i by the zero partial; so a
candidate has one kernel, which `vdot` reads too.  A passing report is
evidence over the sampled domain, never a proof; a failing report carries a
counterexample that re-evaluates to a violation through an independent
finite-difference path, unless its slack is nan.

Certificates are checked, never synthesised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .exprlang import (
    Bin, Const, Expr, compile_expr, differentiate, evaluate, free_vars, parse,
)
from .exprlang import dual_env, evaluate_dual  # noqa: F401  looked up by bench/tracing.py
from .sysmodel import (
    SystemSpec, _integer, _intervals, _tangent_names, _tangents, eval_fh,
    finite_diff_jacobian, json_safe,
)
from .sysmodel import jacobians  # noqa: F401  looked up by bench/tracing.py

__all__ = [
    "CandidateV", "Bounds", "CheckDomain", "FalsificationReport",
    "vdot", "vdot_fd", "check_certificate", "implied_rate",
    "reverify_counterexample", "report_json",
]

#: absolute/relative slack admitted when asserting the inequalities;
#: admits exact-equality boundary cases without false alarms
def _tolerance(v) -> np.ndarray:
    return 1e-9 + 1e-9 * np.abs(v)


#: samples drawn and judged together, their state, kernel columns and slacks
#: in cache; one 1e5-sample ex1 command, in process, took a median of 24-38,
#: 20, 17 and 19-24 ms at 1024, 2048, 4096 and 16384 rows (2-core Xeon,
#: numpy 2.4.6; CHANGES.md), and 16384 rows add 2.9 MB of peak RSS
_BLOCK = 4096


@dataclass(frozen=True)
class CandidateV:
    """Certificate candidate over the variables x1..xn, xi1..xin and t."""

    expr: Expr

    @classmethod
    def from_string(cls, source: str) -> "CandidateV":
        return cls(parse(source))

    @property
    def time_dependent(self) -> bool:
        return "t" in free_vars(self.expr)

    def check_variables(self, spec: SystemSpec) -> None:
        allowed = {*spec.state_names, *_tangent_names(spec), "t"}
        unknown = free_vars(self.expr) - allowed
        if unknown:
            raise ValueError(
                f"certificate uses unknown variable(s) {sorted(unknown)}; "
                f"allowed are x1..x{spec.n}, xi1..xi{spec.n}, t")


@dataclass(frozen=True)
class Bounds:
    """Constants of the certificate conditions.

    Time-varying form: all four alphas, with alpha3 < alpha4 (alpha3 weights
    the exponential in the sandwich, alpha4 is the decay rate).
    Time-invariant form: leave alpha4 as None; alpha3 is then the decay
    rate, and the conditions are judged at t = t0 = 0, where the sandwich's
    weight is 1.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float | None = None
    p: float = 2.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.alpha1, self.alpha2,
                   self.alpha3, self.p, self.alpha4 or 0.0)):
            raise ValueError("alpha1..alpha4 and p must be finite")
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ValueError("alpha1 and alpha2 must be positive")
        if self.alpha3 < 0:
            raise ValueError("alpha3 must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.alpha4 is not None and not self.alpha3 < self.alpha4:
            raise ValueError(
                f"need alpha3 < alpha4, got alpha3={self.alpha3}, "
                f"alpha4={self.alpha4}")


@dataclass(frozen=True)
class CheckDomain:
    """Sampling domain instantiating the for-all quantifier.

    x is uniform in `x_box`; xi is stratified as a uniform direction on the
    unit sphere times a radius cycling through `xi_radii` (the conditions are
    only homogeneous in xi for homogeneous V, so several scales are probed);
    t is uniform in `t_range`.  Deterministic box-corner/axis/endpoint probes
    are appended to the random samples.
    """

    x_box: tuple[tuple[float, float], ...]
    t_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    samples: int = 10_000
    seed: int = 0
    xi_radii: tuple[float, ...] = (0.1, 1.0, 10.0)

    def __post_init__(self):
        object.__setattr__(self, "x_box", _intervals(self.x_box, "x_box"))
        if _integer(self.samples, "samples") < 1:
            raise ValueError("need at least one sample")
        if _integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        t_lo, t_hi = self.t_range
        if not (0 <= t_lo <= t_hi and math.isfinite(t_hi)):
            raise ValueError("t_range must satisfy 0 <= t_lo <= t_hi < inf")
        if not (self.xi_radii
                and all(0 < r < math.inf for r in self.xi_radii)):
            raise ValueError("need xi radii, each finite and positive")


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of sampling one certificate condition.

    `worst_margin` is the smallest slack seen (negative slack beyond the
    evaluation tolerance, or nan, is a violation); `counterexample` re-
    evaluates to a violation when `passed` is False, unless its slack is nan.
    """

    condition: str
    passed: bool
    checked: int
    worst_margin: float
    counterexample: dict | None


def report_json(report: FalsificationReport) -> dict:
    """`report`'s fields, JSON-ready; where every number is finite,
    ``FalsificationReport(**report_json(report)) == report``."""
    return json_safe(vars(report))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _uniform(rng: np.random.Generator, lo: float, hi: float,
             out: np.ndarray) -> None:
    """Fill `out` as ``rng.uniform(lo, hi, out.size)`` would, in place:
    the same draws of the stream and lo + (hi - lo)*u, rounded alike."""
    rng.random(out=out)
    out *= hi - lo
    out += lo


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` of the rows of a 2-d `a`, bit for
    bit what it gives on a C-order copy of `a`, whatever `a`'s layout.

    numpy sums a C-order row of fewer than 8 left to right, so such rows
    are summed here a column at a time, one vector loop per column instead
    of one per row.  From 8 on it sums a C-order row pairwise in 8 lanes,
    but an F-order row left to right, so those go through a C-order copy."""
    if a.shape[1] >= 8:
        return np.linalg.norm(np.ascontiguousarray(a), axis=-1)
    out = a[:, 0] * a[:, 0]
    for column in a.T[1:]:
        out += column * column
    return np.sqrt(out, out=out)


def _draw_blocks(n: int, domain: CheckDomain, block: int):
    """Yield the draw of `domain` in blocks of `block` rows as (state, xi,
    t): state the column-major (rows, 2n) buffer of x and xi, xi its view
    ``state[:, n:]``.

    The bytes are those of one `default_rng(seed)` filling x column by
    column with uniforms, then unit normal directions times each row's
    radius, then uniform t, with the probes (corners of the box's first six
    axes, at the midpoint of the others, x axis seeds x horizon endpoints)
    in the tail.  A uniform takes one raw draw, so x's column j and t come
    block by block from the seed's stream advanced past what precedes them.
    The normals vary in draws, so they are drawn at once, the one array as
    long as the draw; each block copies its rows into state's xi columns
    and normalises and scales them there, a column at a time
    (`_row_norms`).  The buffers are reused: a block is gone once the next
    is asked for.  A draw whose normals do not fit in memory raises
    ValueError."""
    s, radii = domain.samples, domain.xi_radii
    corners = [c + tuple(0.5 * (lo + hi) for lo, hi in domain.x_box[len(c):])
               for c in itertools.product(*domain.x_box[:6])]
    t_lo, t_hi = domain.t_range
    probe_ts = (t_lo,) if t_lo == t_hi else (t_lo, t_hi)
    seeds = np.repeat([sign * np.eye(n)[i] for i in range(n)
                       for sign in (+1.0, -1.0)], len(probe_ts), axis=0)
    probe_x = np.repeat(corners, len(seeds), axis=0)
    probe_t = np.resize(probe_ts, len(probe_x))
    size = s + len(probe_x)
    streams = [np.random.PCG64(domain.seed) for _ in range(n + 1)]
    for j, bits in enumerate(streams):
        bits.advance(j * s)   # x's column j, then the normals and t
    *columns, rng = map(np.random.Generator, streams)
    try:
        normals = np.empty((size, n))
    except MemoryError:
        raise ValueError(f"{s} samples are too many to draw: their "
                         "directions do not fit in memory") from None
    rng.standard_normal(out=normals[:s])
    normals[s:] = np.tile(seeds, (len(corners), 1))
    times = np.empty(min(block, size))
    buffer = np.empty(len(times) * 2 * n)
    for start in range(0, size, block):
        stop = min(start + block, size)
        drawn = max(0, min(stop, s) - start)   # random rows of the block
        t = times[:stop - start]
        out = buffer[:t.size * 2 * n].reshape((t.size, 2 * n), order="F")
        for (lo, hi), column, rows in zip(domain.x_box, columns, out.T):
            _uniform(column, lo, hi, rows[:drawn])
        xi = out[:, n:]
        xi[...] = normals[start:stop]
        dirs = xi[:drawn]
        norms = _row_norms(dirs)[:, np.newaxis]
        small = norms < 1e-12
        np.maximum(norms, 1e-300, out=norms)
        dirs /= norms
        np.copyto(dirs, 1.0 / math.sqrt(n), where=small)
        for k, radius in enumerate(radii):
            dirs[(k - start) % len(radii)::len(radii)] *= radius
        _uniform(rng, t_lo, t_hi, t[:drawn])
        out[drawn:, :n] = probe_x[start + drawn - s:stop - s]
        t[drawn:] = probe_t[start + drawn - s:stop - s]
        yield out, xi, t


def _v_env(spec: SystemSpec, x, xi, t) -> dict:
    """V's variables, in the order x1..xn, xi1..xin, t."""
    env = {name: x[..., i] for i, name in enumerate(spec.state_names)}
    env.update({name: xi[..., i]
                for i, name in enumerate(_tangent_names(spec))})
    env["t"] = t
    return env


# ---------------------------------------------------------------------------
# the certificate kernel
# ---------------------------------------------------------------------------

def _vdot_expr(spec: SystemSpec, V: Expr) -> Expr:
    """dV/dt + (0.0 + sum_i dV/dx_i*f_i) + (0.0 + sum_i dV/dxi_i*(Jf xi)_i).

    The sums run left to right.  A zero partial of V along x stays as the
    product ``0.0*f_i``, so a sample where f is undefined or overflows gets
    a nan Vdot even where V does not depend on x; where f_i is finite the
    product is +-0.0, which changes no bit of a sum that starts at 0.0."""
    along_x: Expr = Const(0.0)
    for name, f in zip(spec.state_names, spec.f):
        along_x = Bin("+", along_x, Bin("*", differentiate(V, name), f))
    along_xi: Expr = Const(0.0)
    for name, jf_xi in zip(_tangent_names(spec), _tangents(spec, spec.f)):
        along_xi = Bin("+", along_xi,
                       Bin("*", differentiate(V, name), jf_xi))
    return Bin("+", Bin("+", differentiate(V, "t"), along_x), along_xi)


def _kernel(spec: SystemSpec, V: CandidateV):
    """The one kernel of V: over x1..xn, xi1..xin, the columns V,
    nu_1..nu_m and Vdot; compiled once per spec and V.

    V, nu = Jh xi and Vdot share one call, so a subtree of f, h or V that
    several of them hold is computed once per call.  Vdot multiplies every
    zero partial of V along x by f_i (`_vdot_expr`)."""
    key = ("certificate", V)
    kernel = spec._kernels.get(key)
    if kernel is None:
        kernel = spec._kernels[key] = compile_expr(
            (V.expr, *_tangents(spec, spec.h), _vdot_expr(spec, V.expr)),
            spec.state_names + _tangent_names(spec))
    return kernel


def vdot(spec: SystemSpec, V: CandidateV, x, xi, t):
    """dV/dt + dV/dx f + dV/dxi (Jf xi).

    V's partials, f and Jf xi are compiled symbolic derivatives in V's one
    certificate kernel, the falsifier's (abs in V differentiates to sign, 0
    at the kink), so every zero partial of V along x multiplies f_i.  x, xi
    and t broadcast: a single point (x and xi of shape (n,), scalar t) gives
    a float, and a batch in any of them an array of the broadcast batch
    shape.
    """
    V.check_variables(spec)
    state = np.concatenate(np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(xi, dtype=float)), axis=-1)
    total = _kernel(spec, V)(state, t)[..., -1]
    return float(total) if total.ndim == 0 else total


def vdot_fd(spec: SystemSpec, V: CandidateV, x, xi, t, step: float = 1e-6):
    """Central-difference version of `vdot`: the independent re-check path."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = spec.n

    def v_at(xv, xiv, tv) -> float:
        return float(evaluate(V.expr, _v_env(spec, xv, xiv, tv)))

    dV_dt = (v_at(x, xi, t + step) - v_at(x, xi, t - step)) / (2 * step)
    grads_x = np.zeros(n)
    grads_xi = np.zeros(n)
    for i in range(n):
        e = np.eye(n)[i] * step
        grads_x[i] = (v_at(x + e, xi, t) - v_at(x - e, xi, t)) / (2 * step)
        grads_xi[i] = (v_at(x, xi + e, t) - v_at(x, xi - e, t)) / (2 * step)
    f, _ = eval_fh(spec, x, t)
    Jf, _ = finite_diff_jacobian(spec, x, t, step)
    return dV_dt + float(grads_x @ f) + float(grads_xi @ (Jf @ xi))


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def _falsify(spec: SystemSpec, V: CandidateV, domain: CheckDomain,
             conditions: list[tuple]) -> list[FalsificationReport]:
    """Judge every condition of `conditions` on one draw of `domain`,
    reports in that order.

    A condition is a ``(name, terms)`` pair, where ``terms(xi, t, v, nu,
    vdot) -> (slack, named terms)`` reads one block: its xi and t, and the
    kernel's columns V, nu (rows x m) and Vdot.  Checks V's variables and
    the box against the spec before it draws.
    V's one kernel gives V, nu and Vdot for every condition, Vdot with its
    products of f with a zero partial of V (`_kernel`).  The draw comes in
    blocks of `_BLOCK` rows (`_draw_blocks`), each written into one
    column-major (rows, 2n) buffer of the check and judged as it comes,
    with one kernel call and every condition on its rows.  A slack not at least -tolerance (nan included,
    as where V or f is undefined) is a violation; a block keeps its least
    slack and its violated row of least slack, nan ranked last, with the
    named terms of that row.  Across blocks the least slack is np.min of
    the blocks' (so nan wins, as in one pass), and a block's violated row
    replaces the one held only when its slack is strictly less, so ties go
    to the lowest index.  Nothing of the length of the draw is kept but its
    xi directions, and the reports equal those of one pass over it."""
    V.check_variables(spec)
    if len(domain.x_box) != spec.n:
        raise ValueError(f"domain box has {len(domain.x_box)} intervals, "
                         f"system has n={spec.n}")
    kernel = _kernel(spec, V)
    mins = [[] for _ in conditions]
    worst = [(math.inf, None)] * len(conditions)   # (rank, counterexample)
    checked = 0
    with np.errstate(all="ignore"):   # an overflowing sample judges as nan
        for state, xi, t in _draw_blocks(spec.n, domain, _BLOCK):
            checked += len(t)
            out = kernel(state, t)
            v = out[:, 0]
            tolerance = _tolerance(v)
            for k, (_, terms) in enumerate(conditions):
                slack, named = terms(xi, t, v, out[:, 1:-1], out[:, -1])
                mins[k].append(np.min(slack))
                bad = np.flatnonzero(~(slack >= -tolerance))
                if bad.size == 0:
                    continue
                ranks = np.where(np.isnan(slack[bad]), np.inf, slack[bad])
                j = np.argmin(ranks)
                if worst[k][1] is None or ranks[j] < worst[k][0]:
                    worst[k] = ranks[j], _counterexample(
                        bad[j], state, xi, t, v, named)
    return [FalsificationReport(condition=name,
                                passed=counterexample is None,
                                checked=checked,
                                worst_margin=float(np.min(block_mins)),
                                counterexample=counterexample)
            for (name, _), block_mins, (_, counterexample)
            in zip(conditions, mins, worst)]


def _counterexample(i: int, state, xi, t, v, named) -> dict:
    """Row `i` of a block: its sample, V and named terms (a scalar term
    broadcasts)."""
    counterexample = {"x": [float(c) for c in state[i, :xi.shape[1]]],
                      "xi": [float(c) for c in xi[i]],
                      "t": float(t[i]), "V": float(v[i])}
    for k, term in named.items():
        counterexample[k] = float(np.broadcast_to(term, v.shape)[i])
    return counterexample


def _sandwich(bounds: Bounds, t0: float) -> tuple:
    def terms(xi, t, v, nu, vd):
        nu_norm = _row_norms(nu)
        xi_norm = _row_norms(xi)
        lower = v - bounds.alpha1 * nu_norm ** bounds.p
        upper = bounds.alpha2 * xi_norm ** bounds.p \
            * np.exp(bounds.alpha3 * (t - t0)) - v
        return np.minimum(lower, upper), {
            "nu_norm": nu_norm, "xi_norm": xi_norm, "lower_slack": lower,
            "upper_slack": upper, "t0": t0}

    return "sandwich", terms


def _decay(rate: float) -> tuple:
    def terms(xi, t, v, nu, vd):
        slack = -rate * v - vd
        return slack, {"vdot": vd, "slack": slack}

    return "decay", terms


def check_certificate(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                      domain: CheckDomain) -> list[FalsificationReport]:
    """Falsify both conditions of the certificate on one draw; two reports,
    in this order:

    * "sandwich": alpha1 ||nu||^p <= V <= alpha2 ||xi||^p e^{alpha3 (t - t0)},
      t0 the left end of the sampling t_range (any fixed choice only
      rescales alpha2);
    * "decay": Vdot <= -rate V.

    With alpha4 set (time-varying form), the rate is alpha4.  With alpha4
    unset (time-invariant form), the rate is alpha3 > 0, and both are judged
    at t = t0 = 0, where the sandwich's weight is 1: alpha1 ||nu||^p <= V <=
    alpha2 ||xi||^p.  That form rejects time-varying systems and
    t-dependent certificates, as nothing may depend on time.

    Every inequality is asserted per sample with slack tolerance
    1e-9 (1 + |V|).  The samples are drawn once for both conditions, and
    judged by the one kernel of V that every check of V reads (`_kernel`).
    """
    rate = bounds.alpha4
    if rate is None:
        if not spec.time_invariant:
            raise ValueError(f"{spec.name!r} is time-varying; its certificate "
                             "needs alpha4 (the time-varying form)")
        if V.time_dependent:
            raise ValueError(
                "the time-invariant check needs a t-independent certificate")
        if not bounds.alpha3 > 0:
            raise ValueError("the time-invariant form uses alpha3 > 0 as "
                             "the decay constant")
        rate = bounds.alpha3
        domain = replace(domain, t_range=(0.0, 0.0))
    return _falsify(spec, V, domain, [_sandwich(bounds, domain.t_range[0]),
                                      _decay(rate)])


def check_sandwich(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                   domain: CheckDomain) -> FalsificationReport:
    """The "sandwich" report of `check_certificate`, judged alone; kept
    only while bench/tracing.py times the lyapunov layer through it."""
    return _falsify(spec, V, domain, [_sandwich(bounds, domain.t_range[0])])[0]


def check_decay(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                domain: CheckDomain) -> FalsificationReport:
    """The time-varying form's "decay" report of `check_certificate`,
    judged alone; kept only while bench/tracing.py times the lyapunov layer
    through it."""
    if bounds.alpha4 is None:
        raise ValueError("the decay check needs alpha4 (time-varying form)")
    return _falsify(spec, V, domain, [_decay(bounds.alpha4)])[0]


# ---------------------------------------------------------------------------
# rate implied by a passing certificate
# ---------------------------------------------------------------------------

def implied_rate(bounds: Bounds) -> tuple[float, float]:
    """(c, alpha) guaranteed by a passing certificate.

    alpha = (alpha4 - alpha3)/p for the time-varying form and alpha3/p for
    the time-invariant form; c = (alpha2/alpha1)^(1/p).  These numbers feed
    the acceptance thresholds of the empirical checkers.
    """
    if bounds.alpha4 is not None:   # Bounds keeps alpha3 < alpha4
        alpha = (bounds.alpha4 - bounds.alpha3) / bounds.p
    else:
        if not bounds.alpha3 > 0:
            raise ValueError("time-invariant form needs alpha3 > 0")
        alpha = bounds.alpha3 / bounds.p
    c = (bounds.alpha2 / bounds.alpha1) ** (1.0 / bounds.p)
    return c, alpha


# ---------------------------------------------------------------------------
# counterexample soundness
# ---------------------------------------------------------------------------

def reverify_counterexample(spec: SystemSpec, V: CandidateV, bounds: Bounds,
                            report: FalsificationReport) -> float:
    """Recompute the violated slack at a stored counterexample through the
    finite-difference path; returns the slack (negative = confirmed).

    The recomputation shares no derivative code with the falsifier (central
    differences and the tree-walking evaluator instead of the compiled
    symbolic derivatives of f, h and V), so a confirmed negative slack rules
    out a falsifier-side evaluation bug.  A counterexample of nan slack is not confirmed this way,
    and where f, h or V is undefined at the counterexample (the falsifier's
    kernels give nan there) the recomputation raises ExprEvalError.  The
    decay rate is alpha4, or alpha3 in the time-invariant form.
    """
    if report.condition not in ("sandwich", "decay"):
        raise ValueError(f"unknown condition {report.condition!r}")
    if report.counterexample is None:
        raise ValueError("report has no counterexample")
    ce = report.counterexample
    x = np.array(ce["x"])
    xi = np.array(ce["xi"])
    t = ce["t"]
    v = float(evaluate(V.expr, _v_env(spec, x, xi, t)))
    if report.condition == "decay":
        rate = bounds.alpha3 if bounds.alpha4 is None else bounds.alpha4
        return float(-rate * v - vdot_fd(spec, V, x, xi, t))
    _, Jh = finite_diff_jacobian(spec, x, t, 1e-6)
    lower = v - bounds.alpha1 * np.linalg.norm(Jh @ xi) ** bounds.p
    upper = bounds.alpha2 * np.linalg.norm(xi) ** bounds.p \
        * math.exp(bounds.alpha3 * (t - ce.get("t0", 0.0))) - v
    return float(min(lower, upper))
