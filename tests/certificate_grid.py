"""Digests of the certificate falsifier over a fixed grid, to compare trees.

The grid is 4 built-ins x 7 certificates x seeds 3, 11 and 2^63 + 11 x 400
and 5,000 samples x 8 bound sets (two time-varying, six time-invariant) =
1,344 cases, each checked by `check_certificate` on the box [-4, 4]^n with
the default t range.  A case's sha256 covers the `report_json` of each
report and `reverify_counterexample`'s slack of each report that has a
counterexample (or the error it raised), or the error `check_certificate`
raised.  Equal digests on two trees mean byte-identical reports.

Render the digests of the tree on PYTHONPATH, one ``case digest`` a line::

    PYTHONPATH=src python tests/certificate_grid.py > digests.txt

Compare two source trees, each rendered in a fresh interpreter; prints
each case whose digests differ, then the count::

    PYTHONPATH=src python tests/certificate_grid.py --compare PARENT/src src
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

from occtl.lyapunov import (
    Bounds, CandidateV, CheckDomain, check_certificate, report_json,
    reverify_counterexample,
)
from occtl.sysmodel import BUILTIN_NAMES, builtin_system

#: certificates with abs (its derivative is sign), with x and with t
CERTIFICATES = ("(xi1 + xi2)^2", "xi1^2 + xi2^2", "abs(xi1) + 2*abs(xi2)",
                "exp(-0.5*t)*(xi1 + xi2)^2", "(1 + 0.1*x1^2)*xi1^2 + xi2^2",
                "(xi1 + xi2)^2 + 0.1*sin(x1 - x2)*xi1*xi2",
                "(1 + 0.5*x2^2)*(xi1 + xi2)^2")

SEEDS = (3, 11, 2 ** 63 + 11)

SAMPLES = (400, 5_000)

#: two time-varying sets, then six time-invariant ones: passing, failing
#: on decay, failing on the sandwich, p = 1.5, alpha3 = 0 (refused) and p = 3
BOUND_SETS = (Bounds(1.0, 2.0, 0.0, 2.0), Bounds(0.25, 8.0, 0.5, 3.0, p=1.5),
              Bounds(1.0, 2.0, 2.0), Bounds(1.0, 2.0, 12.0),
              Bounds(1.0, 0.5, 2.0), Bounds(0.25, 8.0, 0.5, p=1.5),
              Bounds(1.0, 2.0, 0.0), Bounds(2.0, 1.0, 1.0, p=3.0))


def cases() -> list[str]:
    """Every case as ``system/certificate/seed/samples/bounds``, the last
    two indices into CERTIFICATES and BOUND_SETS."""
    return [f"{name}/{v}/{seed}/{samples}/{b}"
            for name in BUILTIN_NAMES for v in range(len(CERTIFICATES))
            for seed in SEEDS for samples in SAMPLES
            for b in range(len(BOUND_SETS))]


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def case_lines(case: str, specs: dict):
    """The lines a case's digest covers; `specs` caches each built-in, so
    its certificate kernels compile once per run."""
    name, v, seed, samples, b = case.split("/")
    if name not in specs:
        specs[name] = builtin_system(name)
    spec = specs[name]
    V =CandidateV.from_string(CERTIFICATES[int(v)])
    bounds = BOUND_SETS[int(b)]
    domain = CheckDomain(x_box=((-4.0, 4.0),) * spec.n,
                         samples=int(samples), seed=int(seed))
    try:
        reports = check_certificate(spec, V, bounds, domain)
    except (ValueError, ArithmeticError) as err:
        yield f"error: {_error(err)}"
        return
    for report in reports:
        yield json.dumps(report_json(report))
    for report in reports:
        if report.counterexample is None:
            continue
        try:
            slack = reverify_counterexample(spec, V, bounds, report)
            yield f"reverify: {slack!r}"
        except (ValueError, ArithmeticError) as err:
            yield f"reverify error: {_error(err)}"


def case_digest(case: str, specs: dict) -> str:
    h = hashlib.sha256()
    for line in case_lines(case, specs):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def render() -> dict[str, str]:
    specs: dict = {}
    return {case: case_digest(case, specs) for case in cases()}


def _rendered(src: str) -> dict[str, str]:
    """The digests of the tree whose source directory is `src`, rendered
    by this script in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True, check=True)
    return dict(line.split() for line in out.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("SRC_A", "SRC_B"),
                        help="compare the digests of two source trees")
    args = parser.parse_args(argv)
    if args.compare is None:
        for case, digest in render().items():
            print(case, digest)
        return 0
    a, b = map(_rendered, args.compare)
    differ = [case for case in cases() if a.get(case) != b.get(case)]
    for case in differ:
        print(case, a.get(case), b.get(case))
    print(f"{len(a)} cases, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
