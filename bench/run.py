"""Benchmark of occtl: three reference workloads through ``occtl.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload contraction-ex1 --seed 7 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``.  The load model is a closed
loop with one client: one process, one thread, each operation starting after
the previous one ends.  BLAS pools are held at one thread and OCCTL_THREADS
is unset (its previous value is recorded).  The workload seed becomes the
CLI's --seed.

With ``--trace 0`` the run reports the end-to-end metrics:

* setup_s      median over fresh interpreters of importing occtl.cli and
               loading the workload's system;
* verdict_s    median time of one operation;
* items_per_s  pairs, samples or certificate samples judged per second of
               verdict_s;
* peak_rss_mb  peak resident memory of the run's own process, a fresh
               interpreter that runs nothing but the warm-up and the
               timed operations.

Times are wall times.  A fixed numpy probe is timed at the start and the
end of the run and recorded with the host, so that a slow host shows next
to a slow change; it corrects nothing.

With ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics of ``bench/tracing.py``: medians of self times in wall
seconds, counts that must repeat exactly, the tracer's own bookkeeping
time and the tracing overhead (traced minus untraced wall time).  The
metrics printed are the ones BENCHMARK.json declares for the mode, with its
units.

Everything the run does counts against ``--seconds``: the warm-up, the
setup processes and the field probe as well as the timed operations.  A run
stops starting operations when the next one is expected to end past the
budget, but always times at least MIN_ROUNDS of them, so a run on a slow
host can last one operation longer than ``--seconds``.

Every operation is checked (see ``workloads.py``), and the digest of every
report's results must agree across repeats and the traced operations.  Failed operations are counted in ``failed``; ``failed_frac`` is
printed with the other metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the per-operation samples, the span table and the host.
"""

import os
import sys

# BLAS pools must be sized before numpy loads; children inherit this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
OCCTL_THREADS_AT_START = os.environ.pop("OCCTL_THREADS", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = BENCH.parent / "BENCHMARK.json"

#: fresh interpreters timed for setup_s
SETUP_PROCESSES = 7

#: no setup process may run longer than this
SETUP_TIMEOUT_S = 150

#: fewest timed operations a run reports a median over, per mode; a traced
#: round is a traced and an untraced operation
MIN_ROUNDS = {0: 3, 1: 2}

_A = np.linspace(0.1, 1.0, 2)
_B = np.ones((2, 2))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("contraction-ex1", "oes-ex2", "lyapunov-ex1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="operation size; smoke is for the benchmark's "
                             "own tests")
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe() -> float:
    """Seconds taken by a fixed loop of small numpy operations."""
    start = time.perf_counter()
    for _ in range(100):
        np.stack([np.sin(_A) * _A + 1.0, np.cos(_A)], axis=-1) @ _B
    return time.perf_counter() - start


def probe_ms() -> float:
    """Median milliseconds of 15 probes, after one that pays first costs."""
    probe()
    return 1e3 * statistics.median(probe() for _ in range(15))


def host_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "occtl_threads_at_start": OCCTL_THREADS_AT_START,
            "blas_threads": 1}


def _setup_s(system: str) -> float:
    """Set-up wall time of `system` in a fresh interpreter (``setup.py``)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup.py"), str(SRC), system],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def repeat(deadline: float, rounds: int, step) -> None:
    """Call step() at least `rounds` times, then while the next call is
    expected to end before `deadline` on the perf_counter clock."""
    durations = []
    while True:
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)
        if len(durations) >= rounds and time.perf_counter() \
                + statistics.median(durations) > deadline:
            return


class Ledger:
    """Every operation of the run, its timing and its failure, if any."""

    def __init__(self):
        self.ops = []
        self.reference = None

    def record(self, kind, outcome, errors=(), **timing) -> None:
        """Log one operation; all digests but the warm-up's must agree."""
        problems = [outcome.error] if outcome.error else []
        problems += list(errors)
        if kind in ("untraced", "traced") and outcome.ok:
            if self.reference is None:
                self.reference = outcome.digest
            elif outcome.digest != self.reference:
                problems.append(f"digest {outcome.digest} != "
                                f"{self.reference}")
        self.ops.append({"kind": kind, "items": outcome.items,
                         "digest": outcome.digest, "problems": problems,
                         **timing})

    def column(self, kind, key) -> list:
        return [op[key] for op in self.ops if op["kind"] == kind]

    @property
    def failed(self) -> int:
        return sum(bool(op["problems"]) for op in self.ops)


def end_to_end(args, deadline, ledger, workloads) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    try:
        setup = [_setup_s(workload.system) for _ in range(SETUP_PROCESSES)]
        error = None
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        setup, error = [0.0], str(exc)
    ledger.record("setup", workloads.Outcome(0, "", error))

    def untraced():
        wall, cpu = time.perf_counter(), time.process_time()
        outcome = workloads.run(args.workload, args.seed, args.size)
        ledger.record("untraced", outcome,
                      wall_s=time.perf_counter() - wall,
                      cpu_s=time.process_time() - cpu)

    repeat(deadline, MIN_ROUNDS[0], untraced)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict_s = statistics.median(ledger.column("untraced", "wall_s"))
    items = max(ledger.column("untraced", "items"))
    return {"metrics": {"setup_s": statistics.median(setup),
                        "verdict_s": verdict_s,
                        "items_per_s": items / verdict_s,
                        "peak_rss_mb": peak_rss_mb},
            "setup_s": setup}


def per_layer(args, deadline, ledger, workloads, tracing) -> dict:
    layer_runs, spans = [], {}
    probes = tracing.field_probe(args.seed)

    def timed(tracer=None):
        # installing the tracer calibrates it, so it is outside the timing
        with tracer or contextlib.nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            outcome = workloads.run(args.workload, args.seed, args.size)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return outcome, {"wall_s": wall, "cpu_s": cpu}

    def traced():
        tracer = tracing.Tracer()
        outcome, timing = timed(tracer)
        metrics = tracer.metrics()
        errors = list(tracer.errors)
        if layer_runs:
            errors += [f"{name} {value} != {layer_runs[0][name]}"
                       for name, value in metrics.items()
                       if tracing.exact(name) and value != layer_runs[0][name]]
        layer_runs.append(metrics)
        spans.update(tracer.span_table())
        ledger.record("traced", outcome, errors, **timing)

    def untraced():
        outcome, timing = timed()
        ledger.record("untraced", outcome, **timing)

    rounds = []

    def pair():
        # alternate which side goes first, so drift hits both alike
        first, second = (traced, untraced) if len(rounds) % 2 \
            else (untraced, traced)
        first()
        second()
        rounds.append(None)

    repeat(deadline, MIN_ROUNDS[1], pair)
    metrics = {name: (layer_runs[0][name] if tracing.exact(name)
                      else statistics.median(r[name] for r in layer_runs))
               for name in layer_runs[0]}
    metrics["trace.overhead_s"] = \
        statistics.median(ledger.column("traced", "wall_s")) \
        - statistics.median(ledger.column("untraced", "wall_s"))
    metrics.update(probes)
    return {"metrics": metrics, "spans": spans}


def main(argv=None) -> int:
    begin = time.perf_counter()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "occtl" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no occtl package under {SRC} or no {SPEC.name}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = begin + args.seconds
    sys.path.insert(0, str(SRC))
    import workloads

    load_start = os.getloadavg()
    host = host_info()
    probe_start = probe_ms()
    ledger = Ledger()
    ledger.record("warm-up", workloads.run(args.workload, args.seed, "smoke"))
    if args.trace:
        import tracing
        result = per_layer(args, deadline, ledger, workloads, tracing)
    else:
        result = end_to_end(args, deadline, ledger, workloads)
    declared = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    probe_end = probe_ms()
    host.update(loadavg_start=load_start, loadavg_end=os.getloadavg(),
                probe_ms_start=probe_start, probe_ms_end=probe_end)
    metrics = result.pop("metrics")
    if args.trace:
        metrics["host.probe_ms"] = (probe_start + probe_end) / 2

    attempted = len(ledger.ops)
    failed_frac = ledger.failed / attempted
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} ops={attempted}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_frac':<34} {failed_frac:>14.6g} ratio")
    print(f"{'host.probe_ms_start':<34} {probe_start:>14.6g} ms")
    print(f"{'host.probe_ms_end':<34} {probe_end:>14.6g} ms")
    detail = {"workload": args.workload, "seed": args.seed,
              "cli_seed": workloads.cli_seed(args.seed),
              "trace": args.trace, "size": args.size, "seconds": args.seconds,
              "failed_frac": failed_frac, "host": host, "ops": ledger.ops,
              **result}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
