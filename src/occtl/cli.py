"""Command-line front end.

Subcommands: simulate, jacobian, contraction, partial, oes, oes-eq,
lyapunov, reproduce.  Every randomized subcommand takes --seed (default 0)
and prints it, so runs are reproducible.  Only --out DIR writes files:
report.json and the series, one per item for a sampling check, with 17
significant digits, byte-stable for a fixed seed and version.
`reproduce` reads --rtol and --atol and always integrates with
rk45-adaptive, so it rejects --method and --step (exit 2).

Exit codes: 0 all checks passed / property holds; 1 a check was falsified
(witness in the report); 2 usage or validation error, among them a malformed
or unreadable system file and an --out that cannot be made a directory; 3
numerical failure: a simulated trajectory was truncated (blow-up, step
underflow, or f left its domain) or its output is not finite (h left its
domain), or a `jacobian` query is not finite (f or h undefined or not
differentiable at the point), with the report printed all the same.  Inside
the checkers a trajectory that leaves f's domain is a truncated item, an
output outside h's domain fails its own item, and a certificate sample where
f, h or V is undefined is a violation; none of them is a failure of the run.
Reports print every number that is not finite as null.  A run whose stdout
is closed before its report is written exits 141, with no traceback.

The environment variable OCCTL_THREADS caps the worker count; the numeric
engine evaluates samples as vectorised batches on one thread, so the cap is
recorded in reports and results never depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .contraction import (
    DEFAULT_ALPHA_MIN, SamplingPlan, check_oes_equilibrium,
    check_oes_variational, check_output_contraction,
    check_partial_contraction, fit_rate, simulate_pair, verdict_json,
)
from .exprlang import ExprEvalError
from .lyapunov import (
    Bounds, CandidateV, CheckDomain, check_certificate, implied_rate,
    report_json,
)
# no longer called here, but bench/tracing.py looks both names up
from .lyapunov import check_decay, check_sandwich  # noqa: F401
from .odeint import IntegratorConfig, integrate_batch, map_output
from .sysmodel import (
    BUILTIN_NAMES, builtin_system, jacobians, json_safe, output_map,
    system_from_json, vector_field,
)

USAGE_ERROR, FALSIFIED, NUMERIC_FAILURE = 2, 1, 3
#: 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe
CLOSED_STDOUT = 141

#: reference value the fig2 reproduction checks the long-run output against
FIG2_OUTPUT_TARGET = 0.246
FIG2_OUTPUT_TOLERANCE = 0.005

#: initial conditions behind the fig1/fig2 reproductions
FIG1_STARTS = ((-2.5, -5.0), (-1.5, -3.0))
FIG2_START = (3.0, 3.0)


class UsageError(ValueError):
    pass


def load_system(path_or_name: str):
    """Resolve a built-in name or a JSON system document on disk."""
    if path_or_name in BUILTIN_NAMES:
        return builtin_system(path_or_name)
    path = Path(path_or_name)
    if path.exists():
        try:
            return system_from_json(path.read_text())
        except OSError as err:
            raise UsageError(f"cannot read system file {path}: "
                             f"{err.strerror or err}") from None
        except json.JSONDecodeError as err:
            raise UsageError(f"malformed system JSON {path}: {err}") from None
    raise UsageError(
        f"unknown system {path_or_name!r}: not a file and not one of "
        f"{', '.join(BUILTIN_NAMES)}")


def _threads() -> int:
    raw = os.environ.get("OCCTL_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"OCCTL_THREADS must be an integer, got {raw!r}") \
            from None
    if value < 1:
        raise UsageError("OCCTL_THREADS must be at least 1")
    return value


def _vec(text: str, n: int | None, what: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise UsageError(f"{what} must be comma-separated numbers, got "
                         f"{text!r}") from None
    if n is not None and values.shape != (n,):
        raise UsageError(f"{what} needs {n} component(s), got {values.size}")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{what} must have finite components, got {text!r}")
    return values


def _range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise UsageError(f"interval must look like 'lo:hi', got {text!r}") \
            from None
    return lo, hi


def _box(text, n: int, half_width: float) -> tuple[tuple[float, float], ...]:
    """`text`'s lo:hi intervals, one per coordinate; +-half_width without."""
    if text is None:
        return ((-half_width, half_width),) * n
    box = tuple(_range(seg) for seg in text.split(","))
    if len(box) != n:
        raise UsageError(f"box needs {n} interval(s), got {len(box)}")
    return box


class _Reporter:
    """Collects the run report and the emitted file manifest; the one
    writer of series files."""

    def __init__(self, args):
        self.t_start = time.perf_counter()
        out = getattr(args, "out", None)
        if out == "":
            raise UsageError("--out needs a directory name, got ''")
        self.out = None if out is None else Path(out)
        self.fmt = getattr(args, "format", None)
        if self.out is None and self.fmt is not None:
            raise UsageError("--format needs --out, which writes the files")
        if self.out is not None:
            try:
                self.out.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise UsageError(f"cannot write to --out {self.out}: "
                                 f"{err.strerror or err}") from None
        self.doc = {
            "command": " ".join(args.command_echo),
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "threads": _threads(),
            "results": {},
            "files": [],
        }

    def add(self, key, value):
        self.doc["results"][key] = value

    def write_series(self, name: str, **columns) -> None:
        """Write the equal-length `columns` as `name`.json or `name`.csv
        under --out, if given; CSV spreads a (k, n) column x over x1..xn and
        keeps 17 significant digits, so re-reading gives the same doubles."""
        if self.out is None:
            return
        if self.fmt == "json":
            path = self.out / f"{name}.json"
            text = json.dumps(json_safe(columns), indent=2)
        else:
            path = self.out / f"{name}.csv"
            header, series = [], []
            for key, values in columns.items():
                header += [key] if values.ndim == 1 else [
                    f"{key}{i + 1}" for i in range(values.shape[1])]
                series += list(np.atleast_2d(values.T))
            rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*series))
            text = "\n".join([",".join(header), *rows]) + "\n"
        path.write_text(text)
        self.doc["files"].append(path.name)

    def finish(self, code: int) -> int:
        self.doc = json_safe(self.doc)
        if self.out is not None:
            report_path = self.out / "report.json"
            report_path.write_text(
                json.dumps(self.doc, indent=2, sort_keys=True))
            self.doc["files"].append(report_path.name)
        self.doc["exit_code"] = code
        self.doc["wall_time_s"] = round(time.perf_counter() - self.t_start, 3)
        print(json.dumps(self.doc, indent=2, sort_keys=True))
        return code


def _integrator_config(args) -> IntegratorConfig:
    """IntegratorConfig from the flags given; absent ones keep its defaults.
    A flag that the chosen method does not read is a usage error."""
    given = vars(args).keys() & {"method", "step", "rtol", "atol"}
    cfg = IntegratorConfig(**{key: getattr(args, key) for key in given})
    unread = given & ({"rtol", "atol"} if cfg.method == "rk4-fixed"
                      else {"step"})
    if unread:
        raise UsageError(f"method {cfg.method} does not read "
                         + ", ".join(f"--{key}" for key in sorted(unread)))
    return cfg


def _trajectories(rep: _Reporter, spec, starts: dict, t0: float, tf: float,
                  cfg: IntegratorConfig) -> list:
    """Integrate `starts`, {series name: x0}, as one batch and write each
    trajectory as its t, x, y series: (trajectory, outputs) per start."""
    trajs = integrate_batch(vector_field(spec), np.array(list(starts.values())),
                            t0, tf, cfg)
    runs = [(traj, map_output(spec, traj)) for traj in trajs]
    for name, (traj, y) in zip(starts, runs):
        rep.write_series(name, t=traj.times, x=traj.states, y=y)
    return runs


def _plan(args, spec) -> SamplingPlan:
    return SamplingPlan(box=_box(args.box, spec.n, 5.0), pairs=args.pairs,
                        seed=args.seed, t0=args.t0, tf=args.tf)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    rep = _Reporter(args)
    spec = load_system(args.system)
    x0 = _vec(args.x0, spec.n, "--x0")
    [(traj, y)] = _trajectories(rep, spec, {f"simulate_{spec.name}": x0},
                                args.t0, args.tf, _integrator_config(args))
    rep.add("t_end", traj.t_end)
    rep.add("failure", traj.failure)
    rep.add("final_state", traj.states[-1])
    rep.add("final_output", y[-1])
    ok = traj.ok and bool(np.all(np.isfinite(y)))
    return rep.finish(0 if ok else NUMERIC_FAILURE)


def cmd_jacobian(args) -> int:
    rep = _Reporter(args)
    spec = load_system(args.system)
    x = _vec(args.x, spec.n, "--x")
    if not np.isfinite(args.t):
        raise UsageError(f"--t must be finite, got {args.t}")
    values = {"f": vector_field(spec)(x, args.t),
              "y": output_map(spec)(x, args.t),
              **vars(jacobians(spec, x, args.t))}
    for key, value in values.items():
        rep.add(key, value)
    # nan or inf where f or h is undefined or not differentiable there
    ok = all(np.all(np.isfinite(v)) for v in values.values())
    return rep.finish(0 if ok else NUMERIC_FAILURE)


def _run_verdict_command(args, checker, **results) -> int:
    """Report ``checker(spec, plan, alpha_min=...)`` and the extra
    `results`, and write every item's divergence series."""
    rep = _Reporter(args)
    spec = load_system(args.system)
    verdict = checker(spec, _plan(args, spec),
                      alpha_min=args.alpha_min)
    rep.add("verdict", verdict_json(verdict))
    for key, value in results.items():
        rep.add(key, value)
    for result in verdict.results:
        rep.write_series(f"{verdict.kind}_pair_{result.index:03d}",
                         t=result.series.times, d=result.series.d)
    return rep.finish(0 if verdict.holds else FALSIFIED)


def cmd_contraction(args) -> int:
    return _run_verdict_command(args, check_output_contraction)


def cmd_partial(args) -> int:
    return _run_verdict_command(args, check_partial_contraction)


def cmd_oes(args) -> int:
    return _run_verdict_command(args, check_oes_variational)


def cmd_oes_eq(args) -> int:
    y_star = _vec(args.y_star, None, "--y-star")
    x_ref0 = None if args.x_ref0 is None else _vec(args.x_ref0, None,
                                                   "--x-ref0")
    return _run_verdict_command(
        args, lambda spec, plan, alpha_min: check_oes_equilibrium(
            spec, y_star, plan, x_ref0=x_ref0, alpha_min=alpha_min),
        y_star=y_star)


def cmd_lyapunov(args) -> int:
    rep = _Reporter(args)
    spec = load_system(args.system)
    candidate = CandidateV.from_string(args.V)
    bounds = Bounds(alpha1=args.alpha1, alpha2=args.alpha2,
                    alpha3=args.alpha3, alpha4=args.alpha4, p=args.p)
    t_range = {} if args.t_range is None else {"t_range": _range(args.t_range)}
    if t_range and args.alpha4 is None:
        raise UsageError("--t-range needs --alpha4: the form without it "
                         "is evaluated at t = 0")
    domain = CheckDomain(
        x_box=_box(args.x_box, spec.n, 10.0), **t_range,
        samples=args.samples, seed=args.seed,
        xi_radii=tuple(_vec(args.xi_radii, None, "--xi-radii").tolist()))
    reports = check_certificate(spec, candidate, bounds, domain)
    c, alpha = implied_rate(bounds)
    rep.add("checks", [report_json(r) for r in reports])
    rep.add("implied_rate", {"c": c, "alpha": alpha})
    passed = all(r.passed for r in reports)
    return rep.finish(0 if passed else FALSIFIED)


# ---------------------------------------------------------------------------
# reproductions
# ---------------------------------------------------------------------------

def _reproduce_fig1(args, rep: _Reporter) -> int:
    spec = builtin_system("ex1-timevarying")
    cfg = _integrator_config(args)
    _trajectories(rep, spec, {f"fig1_trajectory_{label}": x0 for label, x0
                              in zip("ab", FIG1_STARTS)}, 0.0, args.tf, cfg)
    series = simulate_pair(spec, *map(np.array, FIG1_STARTS), 0.0, args.tf, cfg)
    fit = fit_rate(series, scale=series.dx0)
    ratio = float(series.state_dist[-1] / series.d[-1])
    rep.write_series("fig1_divergence", t=series.times, d=series.d)
    rep.add("output_divergence_alpha", fit.alpha)
    rep.add("state_escape_truncated_at", series.t_end)
    rep.add("state_distance_over_output_divergence", ratio)
    rep.add("note", "the state separates (and escapes in finite time) while "
                    "the output differences contract")
    return 0 if (fit.valid and fit.alpha >= 0.9 and ratio > 10.0) else FALSIFIED


def _reproduce_fig2(args, rep: _Reporter) -> int:
    spec = builtin_system("ex2-timeinvariant")
    [(traj, y)] = _trajectories(rep, spec, {"fig2_trajectory": FIG2_START},
                                0.0, args.tf, _integrator_config(args))
    norms = np.linalg.norm(traj.states, axis=-1)
    exceeded = norms > 1e3
    final_y = float(y[-1, 0])
    rep.add("final_output", final_y)
    rep.add("output_target", FIG2_OUTPUT_TARGET)
    rep.add("output_error", abs(final_y - FIG2_OUTPUT_TARGET))
    rep.add("state_norm_final", float(norms[-1]))
    rep.add("state_norm_exceeds_1e3_at",
            float(traj.times[np.argmax(exceeded)]) if exceeded.any() else None)
    rep.add("note", "the state is unstable while the output settles")
    ok = traj.ok and abs(final_y - FIG2_OUTPUT_TARGET) <= FIG2_OUTPUT_TOLERANCE \
        and bool(exceeded.any())
    return 0 if ok else FALSIFIED


def _reproduce_remark1(args, rep: _Reporter) -> int:
    spec = builtin_system("lti-remark1")
    cfg = _integrator_config(args)
    plan = SamplingPlan(box=((-5.0, 5.0), (-5.0, 5.0)), pairs=args.pairs,
                        seed=args.seed, t0=0.0, tf=args.tf)
    contraction = check_output_contraction(spec, plan, cfg)
    partial = check_partial_contraction(spec, plan, cfg)
    for name, starts in (("remark1_divergence", ((0.0, 0.0), (0.0, 1.0))),
                         ("remark1_partial_witness", ((1.0, 0.0), (1.0, 1.0)))):
        series = simulate_pair(spec, *starts, 0.0, args.tf, cfg)
        rep.write_series(name, t=series.times, d=series.d)
    rep.add("output_contraction", verdict_json(contraction))
    rep.add("partial_contraction", verdict_json(partial))
    rep.add("note", "output contraction holds for y = x1 while partial "
                    "contraction is falsified by pairs with equal initial "
                    "outputs")
    # the reproduced phenomenon IS a falsification: surface it via the exit
    # code, with the witness in the report
    reproduced = contraction.holds and not partial.holds
    return FALSIFIED if reproduced else NUMERIC_FAILURE


def cmd_reproduce(args) -> int:
    rep = _Reporter(args)
    runner = {"fig1": _reproduce_fig1, "fig2": _reproduce_fig2,
              "remark1": _reproduce_remark1}[args.name]
    return rep.finish(runner(args, rep))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: the flags that subcommands share, each with its argparse options
_SHARED = (("--system", dict(required=True, help="built-in name or path to "
                                                 "a system JSON file")),
           ("--seed", dict(type=int, default=0)),
           ("--t0", dict(type=float, default=0.0)),
           ("--tf", dict(type=float, default=10.0)),
           ("--out", dict(default=None, help="directory for emitted files")),
           ("--format", dict(choices=("csv", "json"))))

#: the shared flags a subcommand does not read, and so does not accept;
#: `reproduce` NAME counts as subcommand NAME
_UNREAD = {"simulate": {"--seed"}, "remark1": {"--system", "--t0"},
           **dict.fromkeys(("fig1", "fig2"), {"--system", "--t0", "--seed"}),
           "jacobian": {"--seed", "--t0", "--tf", "--format"},
           "lyapunov": {"--t0", "--tf", "--format"}}


def _command(subs, name: str, func, blurb: str) -> argparse.ArgumentParser:
    """Subcommand `name`, run by `func`, with the shared flags it reads."""
    sub = subs.add_parser(name, help=blurb)
    for flag, options in _SHARED:
        if flag not in _UNREAD.get(name, ()):
            sub.add_argument(flag, **options)
    sub.set_defaults(func=func)
    return sub


def _add_plan(sub):
    sub.add_argument("--box", help="comma-separated lo:hi per coordinate "
                                   "(default -5:5)")
    sub.add_argument("--pairs", "--samples", dest="pairs", type=int, default=50)
    sub.add_argument("--alpha-min", type=float, default=DEFAULT_ALPHA_MIN)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged, and
    a parser built per `main` call leaves a few hundred objects of cyclic
    garbage behind, which in-process callers accumulate between full
    collections."""
    parser = argparse.ArgumentParser(
        prog="occtl",
        description="certify-by-sampling or falsify output contraction and "
                    "output exponential stability of ODE systems with outputs")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = _command(subs, "simulate", cmd_simulate,
                 "integrate a system and dump t,x,y")
    s.add_argument("--x0", required=True)
    s.add_argument("--method", choices=("rk4-fixed", "rk45-adaptive"),
                   default=argparse.SUPPRESS)
    s.add_argument("--step", type=float, default=argparse.SUPPRESS)
    s.add_argument("--rtol", type=float, default=argparse.SUPPRESS)
    s.add_argument("--atol", type=float, default=argparse.SUPPRESS)

    s = _command(subs, "jacobian", cmd_jacobian,
                 "print f, y, Jf, Jh, dh/dt at a point")
    s.add_argument("--x", required=True)
    s.add_argument("--t", type=float, default=0.0)

    for name, func, blurb in (
            ("contraction", cmd_contraction,
             "sample pairs and check output contraction"),
            ("partial", cmd_partial,
             "check partial contraction (equal-initial-output pairs)"),
            ("oes", cmd_oes,
             "check exponential decay of the variational output")):
        _add_plan(_command(subs, name, func, blurb))

    s = _command(subs, "oes-eq", cmd_oes_eq,
                 "check output convergence to an equilibrium")
    _add_plan(s)
    s.add_argument("--y-star", required=True)
    s.add_argument("--x-ref0", default=None)

    s = _command(subs, "lyapunov", cmd_lyapunov,
                 "falsification-check a certificate")
    s.add_argument("--V", required=True, help="certificate over x*, xi*, t")
    s.add_argument("--alpha1", type=float, required=True)
    s.add_argument("--alpha2", type=float, required=True)
    s.add_argument("--alpha3", type=float, default=0.0)
    s.add_argument("--alpha4", type=float, default=None,
                   help="omit for the time-invariant form: alpha3 is then "
                   "the decay rate, and both conditions are judged at t = 0")
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--samples", type=int, default=10_000)
    s.add_argument("--x-box", help="like --box (default -10:10)")
    s.add_argument("--t-range", help="lo:hi (default 0 to 2 pi); needs "
                   "--alpha4, as the form without it is at t = 0")
    s.add_argument("--xi-radii", default="0.1,1,10")

    names = subs.add_parser(
        "reproduce", help="rebuild the bundled demonstration datasets"
    ).add_subparsers(dest="name", required=True)
    for name, blurb in (("fig1", "outputs contract, the state separates"),
                        ("fig2", "the output settles, the state is unstable"),
                        ("remark1", "output but not partial contraction")):
        s = _command(names, name, cmd_reproduce, blurb)
        s.add_argument("--rtol", type=float, default=argparse.SUPPRESS)
        s.add_argument("--atol", type=float, default=argparse.SUPPRESS)
    s.add_argument("--pairs", type=int, default=25)  # remark1 alone samples
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = ["occtl"] + argv
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: what is left of the report goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ExprEvalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
