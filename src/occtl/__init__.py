"""occtl: output-contraction analysis of nonlinear ODE systems with outputs.

The toolkit certifies-by-sampling or falsifies three related properties of a
system  xdot = f(x, t), y = h(x, t):

* output contraction: outputs of any two trajectories approach each other
  exponentially, scaled by the initial state distance;
* partial contraction: the stricter variant scaled by the initial output
  distance;
* output exponential stability of the variational system (and, for
  time-invariant systems, exponential convergence of outputs to an output
  equilibrium).

Systems are plain text expressions, compiled into the kernels every
trajectory and output runs on (`vector_field`, `output_map`; an undefined
output is a per-item result, and `eval_fh` is only the reference path); all
Jacobians and variational dynamics are machine-derived (compiled symbolic
derivatives in `jacobians`, in integration loops and for a certificate's nu
and Vdot), trajectories come from two independent Runge-Kutta integrators,
decay rates from log-linear fits with explicit noise handling, and
Lyapunov-style certificates are checked by falsification sampling with
re-verifiable counterexamples.
"""

from .exprlang import (
    Dual, Expr, ExprEvalError, ExprSyntaxError, compile_expr, differentiate,
    dual_env, evaluate, evaluate_dual, free_vars, parse, to_source,
)
from .sysmodel import (
    AugmentedSystem, BUILTIN_NAMES, JacobianBundle, SystemSpec,
    SystemValidationError, augment, builtin_system, eval_fh,
    finite_diff_jacobian, jacobians, json_safe, output_map, system_from_json,
    vector_field,
)
from .odeint import (
    IntegratorConfig, Trajectory, integrate, integrate_batch, map_output,
    sample_at,
)
from .contraction import (
    DivergenceSeries, PairResult, RateFit, SamplingPlan, Verdict,
    check_oes_equilibrium, check_oes_variational, check_output_contraction,
    check_partial_contraction, fit_rate, simulate_pair, verdict_json,
)
from .lyapunov import (
    Bounds, CandidateV, CheckDomain, FalsificationReport, check_certificate,
    implied_rate, report_json, reverify_counterexample, vdot, vdot_fd,
)

__version__ = "0.1.0"
