"""The benchmark tracer must still install on the package as it is.

`bench/tracing.py` swaps, for one traced operation, about 25 names that the
modules of `occtl` look up, and fails with AttributeError when one of them
is gone.  The benchmark's own smoke tests are not part of this suite, so
this test enters and leaves a tracer here.
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
