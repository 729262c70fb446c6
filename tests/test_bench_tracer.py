"""The benchmark tracer must still install on the package as it is.

`bench/tracing.py` swaps, for one traced operation, about 25 names that the
modules of `occtl` look up, and fails with AttributeError when one of them
is gone.  The benchmark's own smoke tests are not part of this suite, so
these tests enter and leave a tracer here, and run every workload traced at
the smoke size: a traced operation fails when a wrapped name returns what
the tracer does not expect.
"""

from pathlib import Path

from occtl import lyapunov, sysmodel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    vdot, field = lyapunov.vdot, sysmodel.AugmentedSystem.field
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()
        assert lyapunov.vdot is not vdot
    finally:
        tracer.__exit__(None, None, None)
    assert lyapunov.vdot is vdot
    assert sysmodel.AugmentedSystem.field is field


#: the report digests of the three workloads at seed 7, smoke size
SMOKE_DIGESTS = {"contraction-ex1": "b10cd82125d048e4",
                 "oes-ex2": "9879653076490710",
                 "lyapunov-ex1": "0e89423203c196fe"}


#: span counts of the same runs: a checker bound before the tracer installs
#: (say, by a parser built once) would run untraced and zero these silently
SMOKE_SPANS = {
    "contraction-ex1": {"cli.calls": 1, "contraction.calls": 1,
                        "contraction.items": 3},
    "oes-ex2": {"cli.calls": 1, "contraction.calls": 1,
                "contraction.items": 3},
    "lyapunov-ex1": {"cli.calls": 2},
}

#: the workloads that integrate trajectories
INTEGRATING = ("contraction-ex1", "oes-ex2")


def test_traced_workloads_keep_their_digests(monkeypatch):
    # every traced operation goes through the spans the tracer installs, so
    # a change in how the checkers reach the integrator shows here
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    for name, digest in SMOKE_DIGESTS.items():
        with tracing.Tracer() as tracer:
            outcome = workloads.run(name, 7, "smoke")
        assert outcome.ok, (name, outcome.error)
        assert tracer.errors == [], name
        assert outcome.digest == digest, name
        metrics = tracer.metrics()
        spans = {key: metrics[key] for key in SMOKE_SPANS[name]}
        assert spans == SMOKE_SPANS[name], name
        if name in INTEGRATING:
            assert metrics["sysmodel.field_calls"] > 0, name
