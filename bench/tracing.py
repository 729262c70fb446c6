"""Per-layer spans recorded from outside the package.

Spans are recorded by replacing, for the duration of one traced operation,
the names each calling module looks up: ``occtl.cli.check_output_contraction``
is looked up by ``cli`` when it runs a verdict, ``occtl.contraction.integrate``
by the checkers, and so on.  The field callables are wrapped where they are
made (``vector_field``) or looked up (``AugmentedSystem.field``).  Nothing in
``src/occtl`` is edited.

A span's self time is its duration minus the time its child spans cover.
The tracer's cost is kept out of every layer's self time and reported as
``trace.self_s``: each wrapper times its own bookkeeping, and the cost of
calling into a wrapper and returning from it, which no clock inside the
wrapper sees, is measured on an empty call when tracing starts and taken
off each caller's self time per call it made.  Spans are aggregated in memory as self time and call count per name, plus a
call count per (caller, callee) edge, which records the span that caused
each span.  Layer names are the package's modules: cli, contraction, odeint,
sysmodel, exprlang and lyapunov.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from occtl import cli, contraction, lyapunov, sysmodel

#: Dormand-Prince 5(4) makes one FSAL field call at t0, then six per attempt
STAGES_PER_ATTEMPT = 6

#: span name of every field call, whichever path made the field
FIELD = "sysmodel.field"

#: (module, attribute, span name) for every plain function span
_SPANS = (
    (cli, "main", "cli.main"),
    (cli, "check_output_contraction", "contraction.check"),
    (cli, "check_oes_variational", "contraction.check"),
    (cli, "check_sandwich", "lyapunov.check"),
    (cli, "check_decay", "lyapunov.check"),
    (contraction, "fit_rate", "contraction.fit_rate"),
    (contraction, "sample_at", "odeint.sample_at"),
    (contraction, "eval_fh", "sysmodel.eval_fh"),
    (contraction, "jacobians", "sysmodel.jacobians"),
    (sysmodel, "eval_fh", "sysmodel.eval_fh"),
    (sysmodel, "compile_expr", "exprlang.compile"),
    (sysmodel, "evaluate", "exprlang.evaluate"),
    (sysmodel, "evaluate_dual", "exprlang.evaluate_dual"),
    (sysmodel, "dual_env", "exprlang.dual_env"),
    (sysmodel.AugmentedSystem, "output", "sysmodel.aug_output"),
    (lyapunov, "eval_fh", "sysmodel.eval_fh"),
    (lyapunov, "jacobians", "sysmodel.jacobians"),
    (lyapunov, "finite_diff_jacobian", "sysmodel.finite_diff_jacobian"),
    (lyapunov, "evaluate", "exprlang.evaluate"),
    (lyapunov, "evaluate_dual", "exprlang.evaluate_dual"),
    (lyapunov, "dual_env", "exprlang.dual_env"),
    (lyapunov, "vdot", "lyapunov.vdot"),
    (lyapunov, "reverify_counterexample", "lyapunov.reverify"),
)


def exact(name: str) -> bool:
    """Counts, and ratios of counts, must repeat exactly; times need not."""
    return not (name.endswith("_s") or "_us" in name)


#: span self times reported as `<name>_s` next to a `<name>_calls` count
_TIMED = ("contraction.fit_rate", "odeint.sample_at", "sysmodel.eval_fh",
          "sysmodel.jacobians", "sysmodel.aug_output", "exprlang.compile",
          "exprlang.evaluate", "exprlang.evaluate_dual", "exprlang.dual_env",
          "lyapunov.vdot", "lyapunov.reverify")


class Tracer:
    """Spans of one traced operation; use as a context manager.

    Entering installs the wrappers, leaving restores the original names.
    `errors` collects failed self-checks of the integrator counters.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.edges = defaultdict(int)
        self.field_rows = 0
        self.attempts = 0
        self.accepted = 0
        self.failures = defaultdict(int)
        self.items = 0
        self.truncated = 0
        self.horizon_fracs = []  # surviving share of [t0, tf] per item
        self.samples_checked = 0
        self.errors = []
        self.wrapper_s = 0.0  # per call, set when tracing starts
        self._stack = [["root", 0.0]]
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, tally=None):
        """`fn` wrapped in a span called `name`.

        After a call returns, ``tally(args, result, field_calls)`` records
        what it produced, where `field_calls` counts the field spans that ran
        inside it.  The wrapper's own bookkeeping, tally included, is timed
        from its entry to its exit: that whole interval counts as child time
        of the calling span, so no layer's self time holds the tracer's cost,
        and the bookkeeping is summed under the span name ``trace``.
        """
        stack, clock = self._stack, time.perf_counter
        self_s, calls, edges = self.self_s, self.calls, self.edges

        def traced(*args, **kwargs):
            enter = clock()
            frame = [name, 0.0, calls[FIELD]]
            edges[stack[-1][0], name] += 1
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                stop = clock()
                stack.pop()
                self_s[name] += stop - start - frame[1]
                calls[name] += 1
                if returned and tally is not None:
                    tally(args, result, calls[FIELD] - frame[2])
                leave = clock()
                stack[-1][1] += leave - enter
                self_s["trace"] += leave - enter - (stop - start)
            return result
        traced.__wrapped__ = fn
        return traced

    def _field(self, fn, x_index):
        def tally(args, result, field_calls):
            x = args[x_index]
            self.field_rows += x.size // x.shape[-1]
        return self._span(FIELD, fn, tally)

    def _vector_field(self, fn):
        def vector_field(spec):
            return self._field(fn(spec), 0)
        return vector_field

    def _tally_integration(self, args, traj, field_calls: int) -> None:
        attempts, rest = divmod(field_calls - 1, STAGES_PER_ATTEMPT)
        accepted = len(traj.times) - 1
        if field_calls < 1 or rest:
            self.errors.append(f"integrate made {field_calls} field calls, "
                               f"not 6 per attempt plus 1")
        if accepted > attempts:
            self.errors.append(f"integrate accepted {accepted} of "
                               f"{attempts} attempts")
        self.attempts += attempts
        self.accepted += accepted
        if traj.failure is not None:
            self.failures[traj.failure] += 1

    def _tally_verdict(self, args, verdict, field_calls: int) -> None:
        plan = args[1]
        self.items += len(verdict.results)
        self.truncated += sum(r.series.truncated for r in verdict.results)
        span = plan.tf - plan.t0
        self.horizon_fracs += [(r.series.t_end - plan.t0) / span
                               for r in verdict.results]

    def _tally_report(self, args, report, field_calls: int) -> None:
        self.samples_checked += report.checked

    def _calibrate(self) -> None:
        """Measure `wrapper_s`: the time a wrapped call costs its caller
        beyond the wrapper's entry-to-exit interval, on an empty call."""
        probe, calls = Tracer(), 5000
        empty = probe._span("empty", lambda x, t: x)
        x = np.zeros((2, 2))
        costs = []
        for _ in range(5):
            covered = probe.self_s["trace"] + probe.self_s["empty"]
            start = time.perf_counter()
            for _ in range(calls):
                empty(x, 0.5)
            looped = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                pass
            looped -= time.perf_counter() - start
            covered = probe.self_s["trace"] + probe.self_s["empty"] - covered
            costs.append((looped - covered) / calls)
        self.wrapper_s = max(statistics.median(costs), 0.0)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        self._calibrate()
        for owner, attr, name in _SPANS:
            fn = getattr(owner, attr)
            tally = {"contraction.check": self._tally_verdict,
                     "lyapunov.check": self._tally_report}.get(name)
            self._patch(owner, attr, self._span(name, fn, tally))
        self._patch(contraction, "integrate",
                    self._span("odeint.integrate", contraction.integrate,
                               self._tally_integration))
        self._patch(contraction, "vector_field",
                    self._vector_field(contraction.vector_field))
        self._patch(sysmodel.AugmentedSystem, "field",
                    self._field(sysmodel.AugmentedSystem.field, 1))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of this operation, and the tracer's own time."""
        s, c = self._self_times(), self.calls
        field_calls = c[FIELD]
        out = {
            "cli.self_s": s["cli.main"],
            "cli.calls": c["cli.main"],
            "contraction.self_s": s["contraction.check"],
            "contraction.calls": c["contraction.check"],
            "contraction.items": self.items,
            "contraction.truncated_frac": _ratio(self.truncated, self.items),
            "contraction.span_frac": (statistics.median(self.horizon_fracs)
                                      if self.horizon_fracs else 0.0),
            "odeint.integrate_calls": c["odeint.integrate"],
            "odeint.integrate_self_s": s["odeint.integrate"],
            "odeint.attempts": self.attempts,
            "odeint.accepted": self.accepted,
            "odeint.accept_ratio": _ratio(self.accepted, self.attempts),
            "odeint.step_us": 1e6 * _ratio(s["odeint.integrate"],
                                           self.attempts),
            "odeint.failure.step_underflow": self.failures["step_underflow"],
            "odeint.failure.non_finite": self.failures["non_finite"],
            "sysmodel.field_calls": field_calls,
            "sysmodel.field_s": s[FIELD],
            "sysmodel.field_us": 1e6 * _ratio(s[FIELD],
                                              field_calls),
            "sysmodel.field_rows": _ratio(self.field_rows, field_calls),
            "lyapunov.self_s": s["lyapunov.check"],
            "lyapunov.calls": c["lyapunov.check"],
            "lyapunov.samples_checked": self.samples_checked,
            "trace.self_s": s["trace"],
        }
        for name in _TIMED:
            out[f"{name}_s"] = s[name]
            out[f"{name}_calls"] = c[name]
        return out

    def _self_times(self) -> defaultdict:
        """Self time per span, with the wrapper cost each caller paid per
        call moved to ``trace``."""
        out = self.self_s.copy()
        for (caller, _), n in self.edges.items():
            if caller != "root":
                out[caller] -= n * self.wrapper_s
                out["trace"] += n * self.wrapper_s
        return out

    def span_table(self) -> dict:
        """Self time and calls per span, calls per caller -> callee, and
        the wrapper cost per call taken off the callers."""
        return {"self_s": dict(self._self_times()), "calls": dict(self.calls),
                "wrapper_us": 1e6 * self.wrapper_s,
                "edges": {f"{a} -> {b}": n
                          for (a, b), n in sorted(self.edges.items())}}


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def field_probe(seed: int) -> dict[str, float]:
    """Median microseconds per ex1 field call at fixed batch sizes."""
    field = sysmodel.vector_field(sysmodel.builtin_system("ex1-timevarying"))
    rng = np.random.default_rng(seed)
    out = {}
    for batch, calls in ((2, 400), (100, 300), (1000, 100)):
        x = rng.uniform(-5.0, 5.0, size=(batch, 2))
        field(x, 0.5)
        per_call = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(calls):
                field(x, 0.5)
            per_call.append((time.perf_counter() - start) / calls)
        out[f"sysmodel.field_us.b{batch}"] = 1e6 * statistics.median(per_call)
    return out
