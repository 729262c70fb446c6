"""The three reference workloads and their correctness checks.

Each workload operation goes through ``occtl.cli.main`` in-process, exactly
as a user's command line would, captures the JSON run report it prints, and
checks the verdict.  An operation returns an `Outcome`; it never raises for
a wrong answer, so failures are counted, not fatal.

Why these three:

* contraction-ex1 is the documented reference run.  It stresses adaptive
  stepping and the field at 2 rows per call, and every pair ends early in
  step underflow, so step control and escape detection show here.
* oes-ex2 integrates through the other field path, the augmented system with
  compiled symbolic Jacobians (1 row of 4 states per call, full horizon).
* lyapunov-ex1 evaluates one large certificate batch with dual numbers and
  integrates nothing, so integrator changes must leave it unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from occtl import cli, lyapunov

#: operation sizes: the reference runs, and a small one for warm-up and tests
SIZES = {"full": {"pairs": 50, "samples": 100_000},
         "smoke": {"pairs": 3, "samples": 2_000}}

#: a contraction or OES verdict must fit at least this rate; the ex1
#: certificate of acceptance criterion 6 implies alpha = 1
MIN_ALPHA = 0.9

#: a re-verified counterexample must violate its condition by at least this
REVERIFY_SLACK = -1e-6


@dataclass(frozen=True)
class Outcome:
    """What one operation produced: judged items, a digest, any failure."""

    items: int
    digest: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cli(argv: list[str]) -> tuple[int, dict | None, str]:
    """Exit code, parsed stdout report (None if unparsable) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    return code, report, err.getvalue().strip()


def cli_seed(seed: int) -> int:
    """The --seed handed to the CLI: the workload seed, kept in 64 bits."""
    return seed % 2 ** 64


def _verdict_operation(argv: list[str], items: int) -> Outcome:
    code, report, err = _run_cli(argv)
    if report is None:
        return Outcome(0, "", f"exit {code}, no report: {err}")
    verdict = report["results"]["verdict"]
    digest = _digest(report["results"])
    min_alpha = verdict["min_alpha"]
    if code != 0 or not verdict["holds"]:
        return Outcome(0, digest, f"exit {code}, holds={verdict['holds']}")
    if min_alpha is None or not min_alpha >= MIN_ALPHA:
        return Outcome(0, digest, f"min_alpha {min_alpha} < {MIN_ALPHA}")
    if verdict["pairs"] != items:
        return Outcome(0, digest, f"{verdict['pairs']} of {items} judged")
    return Outcome(verdict["pairs"], digest)


def contraction_ex1(seed: int, size: str) -> Outcome:
    pairs = SIZES[size]["pairs"]
    return _verdict_operation(
        ["contraction", "--system", "ex1-timevarying", "--pairs", str(pairs),
         "--box", " -5:5,-5:5", "--tf", "20", "--seed", str(cli_seed(seed))],
        pairs)


def oes_ex2(seed: int, size: str) -> Outcome:
    samples = SIZES[size]["pairs"]
    return _verdict_operation(
        ["oes", "--system", "ex2-timeinvariant", "--samples", str(samples),
         "--tf", "5", "--seed", str(cli_seed(seed))],
        samples)


#: the certificate of acceptance criterion 4: passes with alpha4 = 2 and is
#: falsified with alpha4 = 12
_V = "(xi1+xi2)^2"
_BOUNDS = {"alpha1": 1.0, "alpha2": 2.0, "alpha3": 0.0, "p": 2.0}


def lyapunov_ex1(seed: int, size: str) -> Outcome:
    samples = SIZES[size]["samples"]

    def argv(alpha4: int) -> list[str]:
        return ["lyapunov", "--system", "ex1-timevarying", "--V", _V,
                "--alpha1", "1", "--alpha2", "2", "--alpha3", "0",
                "--alpha4", str(alpha4), "--p", "2",
                "--samples", str(samples), "--seed", str(cli_seed(seed))]

    code, passing, err = _run_cli(argv(2))
    if passing is None:
        return Outcome(0, "", f"alpha4=2: exit {code}, no report: {err}")
    checks = passing["results"]["checks"]
    if code != 0 or not all(c["passed"] and c["checked"] >= samples
                            for c in checks):
        return Outcome(0, _digest(passing["results"]),
                       f"alpha4=2: exit {code}, checks {checks}")

    code, falsified, err = _run_cli(argv(12))
    if falsified is None:
        return Outcome(0, "", f"alpha4=12: exit {code}, no report: {err}")
    failing = [c for c in falsified["results"]["checks"] if not c["passed"]]
    if code != 1 or not failing:
        return Outcome(0, _digest(falsified["results"]),
                       f"alpha4=12: exit {code}, nothing falsified")
    spec = cli.load_system("ex1-timevarying")
    candidate = lyapunov.CandidateV.from_string(_V)
    bounds = lyapunov.Bounds(alpha4=12.0, **_BOUNDS)
    slacks = [lyapunov.reverify_counterexample(
                  spec, candidate, bounds,
                  lyapunov.FalsificationReport(**c))
              for c in failing]
    digest = _digest([passing["results"], falsified["results"], slacks])
    if not all(s < REVERIFY_SLACK for s in slacks):
        return Outcome(0, digest, f"re-verified slacks {slacks} not below "
                                  f"{REVERIFY_SLACK}")
    items = sum(c["checked"] for c in checks + falsified["results"]["checks"])
    return Outcome(items, digest)


@dataclass(frozen=True)
class Workload:
    """An operation and the system it loads."""

    operation: Callable[[int, str], Outcome]
    system: str


WORKLOADS = {
    "contraction-ex1": Workload(contraction_ex1, "ex1-timevarying"),
    "oes-ex2": Workload(oes_ex2, "ex2-timeinvariant"),
    "lyapunov-ex1": Workload(lyapunov_ex1, "ex1-timevarying"),
}


def run(name: str, seed: int, size: str) -> Outcome:
    """One operation; an exception becomes a failed outcome."""
    try:
        return WORKLOADS[name].operation(seed, size)
    except Exception as exc:  # a raising operation is counted, not fatal
        return Outcome(0, "", f"{type(exc).__name__}: {exc}")
