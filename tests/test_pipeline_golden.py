"""Golden verdicts of the four sampling checkers, and golden field values.

Each verdict case pins the `verdict_json` summary and a sha256 over every
judged item's initial state, partner, divergence series, fit and note, so
any change to drawing, integration, dense output, output mapping, fitting or
judging shows up as a mismatch.  The values were recorded with the serial
checker pipeline; a batched or reordered pipeline must reproduce them bit for
bit.

The certificate cases pin `report_json` of the sandwich, decay and
time-invariant conditions (or the error each raises) for six certificates on
the four built-ins, two seeds and three bound sets, `vdot` on 257 rows mixing
uniform draws with the special values of the field cases, and the results
of the reference 1e5-sample `lyapunov` runs.  They were recorded while the
falsifier still took f from the tree-walking evaluator and Jf and Jh from
dual numbers; the `vdot` digests were re-recorded since, as noted at their
table.

The field cases pin the compiled kernels themselves: a sha256 over every
value of ``vector_field(spec)``, ``AugmentedSystem.field`` and
``AugmentedSystem.output`` on random batches of several shapes and on rows
built from +-1e200, +-inf, nan and +-0, at a scalar time and at one time per
row.  Verdicts alone miss differences such as the sign of a zero.  These
values were recorded with one compiled function per expression, before f and
the variational system became single kernels.

To re-record after an intended change of results, run this file as a script
(``PYTHONPATH=src python tests/test_pipeline_golden.py``) and paste its output
over the `*GOLDEN` tables.
"""

import contextlib
import hashlib
import io
import itertools
import json

import numpy as np
import pytest

from occtl import lyapunov
from occtl.contraction import (
    SamplingPlan, check_oes_equilibrium, check_oes_variational,
    check_output_contraction, check_partial_contraction, verdict_json,
)
from occtl.cli import main
from occtl.lyapunov import (
    Bounds, CandidateV, CheckDomain, check_certificate, report_json, vdot,
)
from occtl.sysmodel import augment, builtin_system, vector_field
from oracles import dual_vdot

SYSTEMS = ("lti-remark1", "lti-remark1-badout", "ex1-timevarying",
           "ex2-timeinvariant")
CHECKERS = {"contraction": check_output_contraction,
            "partial": check_partial_contraction,
            "oes": check_oes_variational}
SEEDS = (5, 2 ** 63 + 11)

#: root of 3y = cos(y) - sin(y), the output equilibrium of ex2, as a literal
#: so the golden values do not depend on a root finder
EX2_Y_STAR = 0.2432386258829211

#: the equilibrium runs: system, y_star and reference initial state
EQUILIBRIA = {"lti-remark1": (0.0, (0.5, -0.25)),
              "ex2-timeinvariant": (EX2_Y_STAR, None)}


def _plan(seed: int) -> SamplingPlan:
    return SamplingPlan(box=((-5.0, 5.0), (-5.0, 5.0)), pairs=3, seed=seed,
                        t0=0.0, tf=4.0)


def _cases():
    for name in SYSTEMS:
        for kind in CHECKERS:
            for seed in SEEDS:
                yield f"{kind}/{name}/{seed}"
    for name in EQUILIBRIA:
        for seed in SEEDS:
            yield f"oes-eq/{name}/{seed}"


def _run(case: str):
    kind, name, seed = case.split("/")
    spec, plan = builtin_system(name), _plan(int(seed))
    if kind == "oes-eq":
        y_star, x_ref0 = EQUILIBRIA[name]
        return check_oes_equilibrium(spec, y_star, plan, x_ref0=x_ref0)
    return CHECKERS[kind](spec, plan)


def _feed(h, value) -> None:
    """Hash a value exactly: arrays by their float64 bytes, scalars by repr."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=np.float64)
        h.update(repr(arr.shape).encode() + arr.tobytes())
    elif isinstance(value, tuple):
        h.update(b"(")
        for v in value:
            _feed(h, v)
        h.update(b")")
    else:
        h.update(repr(value).encode())
    h.update(b";")


def items_digest(verdict) -> str:
    h = hashlib.sha256()
    for r in verdict.results:
        s = r.series
        for value in (r.index, r.x0, r.partner, s.times, s.d, s.dx0, s.dy0,
                      s.truncated, s.state_dist, r.passed, r.note):
            _feed(h, value)
        fit = r.fit
        _feed(h, None if fit is None else
              (fit.c, fit.alpha, fit.residual, fit.window, fit.c_tight,
               fit.valid, fit.n_points))
    return h.hexdigest()


def fingerprint(verdict) -> tuple[str, str]:
    return (json.dumps(verdict_json(verdict), sort_keys=True),
            items_digest(verdict))


#: case -> (verdict_json text, items digest); oes/ex1-timevarying/5 was
#: re-recorded when c_tight came to leave out the points below the fit's floor
GOLDEN = {
    'contraction/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 0.6480522440057163, "min_alpha": 0.8397623291171826, "pairs": 3, "truncated": 0, "witness": null}',
        '8d8d177e0c05f149df6c0858c9da37732655441bcca9f4e815870c51e3dca90d'),
    'contraction/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 0.8310225241092994, "min_alpha": 0.6372733786134865, "pairs": 3, "truncated": 0, "witness": null}',
        'f56d5409279fcb0f7c30778869e7691e9b8d297c75a3b8730bb8ea5a786dc731'),
    'partial/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 5.221394096483522, "dy0": 0.0, "max_d": 1.0048570334577946, "pair_index": 0, "partner": [3.0500292374538027, -2.141986199118584], "reason": "outputs separate to 1 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '3d7a45d4c3c9ce70152283996537db179b13b00fe8b74a157d9a268b003e2908'),
    'partial/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 2.2461801957518377, "dy0": 0.0, "max_d": 0.43227732006022057, "pair_index": 0, "partner": [-3.3008360850090526, 0.8305693563659355], "reason": "outputs separate to 0.432 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        '4d6e5be22e9144529dd4c7f083cbd7e8570672e832b03f5ced22e5d5ef885ce8'),
    'oes/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 0.9296936792181044, "min_alpha": 0.5907668476094168, "pairs": 3, "truncated": 0, "witness": null}',
        '85fc480176bff7b75330434f8edb04644c8316bc1ea28cdb542686ae0fe72521'),
    'oes/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 0.7431480286687121, "min_alpha": 0.5882436725331018, "pairs": 3, "truncated": 0, "witness": null}',
        'acb4e6881e8fe9aba03a85c44fa251159b85bb50990d56b55235813879e732bf'),
    'contraction/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "output-contraction", "max_c": 0.6480522440057163, "min_alpha": -1.1602376708828175, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.02254886446627, "c_tight": 0.6480522440057163, "dx0": 5.97111830037417, "dy0": 2.896773627032383, "max_d": 221.5971890337681, "pair_index": 0, "partner": [0.15325561042141977, -2.141986199118584], "reason": "fitted alpha -1.023 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '6f8dc990fb998db7b79f541022a57fa14234c2da16490e445b0e755ba3be8d02'),
    'contraction/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "output-contraction", "max_c": 0.8310225241092994, "min_alpha": -1.362726621386514, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.362726621386514, "c_tight": 0.38530032894038274, "dx0": 2.4341152360624516, "dy0": 0.93786540113366, "max_d": 35.68662474468985, "pair_index": 0, "partner": [-2.3629706838753926, 0.8305693563659355], "reason": "fitted alpha -1.363 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        '45b6f6d874c70c9ce41314c96f77b2376e5eda25bbec5e1d3e343499f551d15a'),
    'partial/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 5.221394096483522, "dy0": 0.0, "max_d": 142.49141552901804, "pair_index": 0, "partner": [3.0500292374538027, -2.141986199118584], "reason": "outputs separate to 142 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        'ac0b8a35d2967c7f45d1c00473cb888012acaab68e7130a50ff929bcc5f48f78'),
    'partial/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": {"dx0": 2.2461801957518377, "dy0": 0.0, "max_d": 61.298073281792355, "pair_index": 0, "partner": [-3.3008360850090526, 0.8305693563659355], "reason": "outputs separate to 61.3 from equal initial outputs (no initial-output scale can bound this)", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        'abc9d570808e0b360fd9f048096e5a0a88d751083566a70e938c147b8685d080'),
    'oes/lti-remark1-badout/5': (
        '{"alpha_min": 0.05, "holds": false, "kind": "oes-variational", "max_c": 0.9296936792181044, "min_alpha": -1.409233152390583, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.409233152390583, "c_tight": 0.5086028836135102, "dx0": 1.0, "dy0": 0.5086028836135102, "max_d": 9.607605923596536, "pair_index": 0, "partner": [-0.5086028836135102, 0.861001223448621], "reason": "fitted alpha -1.409 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [3.0500292374538027, 3.0794078973649377]}}',
        '040d7d6e527323208bca0c8e8bea7fd38f8c7055ff7f5b5e4e93a58656e51138'),
    'oes/lti-remark1-badout/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": false, "kind": "oes-variational", "max_c": 0.7431480286687121, "min_alpha": -1.4117563274668985, "pairs": 3, "truncated": 0, "witness": {"alpha": -1.1204416221140059, "c_tight": 0.3406139314268677, "dx0": 0.9999999999999999, "dy0": 0.12137860542142614, "max_d": 23.77350878742512, "pair_index": 0, "partner": [0.12137860542142614, -0.9926062835515145], "reason": "fitted alpha -1.12 below alpha_min 0.05", "t_end": 4.0, "truncated": false, "x0": [-3.3008360850090526, 3.0767495521177732]}}',
        'b93d5a90544ee4f3cac929fe16fc6aa674209b108bef1987892917e80567f40f'),
    # the six ex1 cases below were re-recorded when a constant power 3
    # became the product (x*x)*x: f moves by late bits, so do the series,
    # and oes's max_c, a c_tight that also ranges over the roundoff-level
    # last grid point of an escaping pair, moved from 822.7 and 595.7
    'contraction/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.35957241426739, "min_alpha": 4.546396750393962, "pairs": 3, "truncated": 3, "witness": null}',
        'e0b404a55305db365e01dbcd6dc2e91e5502c661d7e3ef7e2874eb7dfd99f8ad'),
    'contraction/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.4132247197256746, "min_alpha": 2.8925449817644893, "pairs": 3, "truncated": 3, "witness": null}',
        'fbb93ddd7a8eb848b5fa755e2f9a9491817faa4ac47cb8b137e4332cab519a97'),
    'partial/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 3, "witness": null}',
        '6a7f6dfeb447469ad894fb7e5d3208f84c963b5c0780c68fe31e2784f2f9ef6c'),
    'partial/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 3, "witness": null}',
        'dc0226b6925e668ee5e271c0bd52f8fe9dd8f44edc1bdea2daf2eee529e30ee9'),
    'oes/ex1-timevarying/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 1.2980273089913095, "min_alpha": 5.337194520395767, "pairs": 3, "truncated": 3, "witness": null}',
        'd82c4cbba1140e62bd2623ead0c0776b52219838a0420451035bfa2d1ba890c3'),
    'oes/ex1-timevarying/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 1.4122750775060815, "min_alpha": 3.032346034206119, "pairs": 3, "truncated": 3, "witness": null}',
        '0f3c55fac066264a53d396f2e2f3cdd94acf2890414f1480f9c49bc77c5a9dee'),
    'contraction/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 1.8189682835938614, "min_alpha": 4.216325879694759, "pairs": 3, "truncated": 0, "witness": null}',
        '7646b89e441caa7fe8f99860066bd563ba5498f269006bba3d25a9ff699ebaa3'),
    'contraction/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "output-contraction", "max_c": 3.090344781576742, "min_alpha": 4.171019335976358, "pairs": 3, "truncated": 0, "witness": null}',
        'baf89e5f9773ac7f462586402881419f6e2d5926f24316ffeebf598aa767b8f9'),
    'partial/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": null}',
        '3088e2cfa43a72d2280a3b7b98dbc892da8fd008278757f89e93cd5446527698'),
    'partial/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "partial-contraction", "max_c": null, "min_alpha": null, "pairs": 3, "truncated": 0, "witness": null}',
        '0cd2dfd409be57d782bc9f20ea932aa613de0fb078140b5a3db679949beb394d'),
    'oes/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 2.344983109802525, "min_alpha": 4.222987676667361, "pairs": 3, "truncated": 0, "witness": null}',
        'ba1756a962b0c24c5d574887c6ee56baab56df8ab39695548970cf8454633eb8'),
    'oes/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-variational", "max_c": 2.910180700456204, "min_alpha": 4.102506119428113, "pairs": 3, "truncated": 0, "witness": null}',
        '054decfb3801b57f9e8e79c8bbe5b6ad590517a6e2e6dffa5b0c77880db5cf6b'),
    'oes-eq/lti-remark1/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 1.1224245811577074, "min_alpha": 0.95746919614261, "pairs": 3, "truncated": 0, "witness": null}',
        'e89b6af4b8f8e8bb56c1517932f03e438b77c96274c760837a68672cc79dc975'),
    'oes-eq/lti-remark1/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 0.7092543406824418, "min_alpha": 0.9942808431562364, "pairs": 3, "truncated": 0, "witness": null}',
        '34b0fc6d257aa8209d082d0ccdd77ee12f291956194f692575fedc5d2e5f21aa'),
    'oes-eq/ex2-timeinvariant/5': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 1.4866520068540607, "min_alpha": 4.217738888931688, "pairs": 3, "truncated": 0, "witness": null}',
        'decd31213d9ec892b035a6516db9c903c51ee6b9830da3c3dce8021d12d4012f'),
    'oes-eq/ex2-timeinvariant/9223372036854775819': (
        '{"alpha_min": 0.05, "holds": true, "kind": "oes-equilibrium", "max_c": 3.4944023674181093, "min_alpha": 4.159683683695962, "pairs": 3, "truncated": 0, "witness": null}',
        'bc243b2a1bf3f91dcb0dd8f4c252a6acf838dc405e38b286179eacb5a76137a1'),
}


@pytest.mark.parametrize("case", list(_cases()))
def test_verdict_and_items_match_golden(case):
    summary, digest = fingerprint(_run(case))
    assert json.loads(summary) == json.loads(GOLDEN[case][0])
    assert summary == GOLDEN[case][0]
    assert digest == GOLDEN[case][1]


# ---------------------------------------------------------------------------
# field values
# ---------------------------------------------------------------------------

#: every coordinate of the special rows takes each of these values
SPECIAL = (1e200, -1e200, np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5)

#: batch shapes of the random rows
BATCHES = ((), (1,), (2,), (100,))


def _rows(width: int):
    """Random rows at each shape of BATCHES, then every combination of
    SPECIAL values, each with a scalar time and, when batched, a time per
    row."""
    rng = np.random.default_rng(17)
    for shape in BATCHES:
        x = rng.uniform(-3.0, 3.0, size=shape + (width,))
        yield x, 1.3
        if shape:
            yield x, np.linspace(-0.5, 4.0, shape[0])
    x = np.array(list(itertools.product(SPECIAL, repeat=width)))
    yield x, 1.3
    yield x, np.resize(np.array(SPECIAL), len(x))


def _field_values(name: str, kind: str):
    spec = builtin_system(name)
    n = spec.n
    if kind == "vector_field":
        field = vector_field(spec)
        return [field(x, t) for x, t in _rows(n)]
    aug = augment(spec)
    if kind == "aug.field":
        return [aug.field(s, t) for s, t in _rows(2 * n)]
    return [aug.output(s, t) for s, t in _rows(2 * n)]


def field_digest(case: str) -> str:
    name, kind = case.split("/")
    h = hashlib.sha256()
    for value in _field_values(name, kind):
        _feed(h, value)
    return h.hexdigest()


FIELD_CASES = [f"{name}/{kind}" for name in SYSTEMS
               for kind in ("vector_field", "aug.field", "aug.output")]

#: case -> sha256 of the field values
FIELD_GOLDEN = {
    'lti-remark1/vector_field': '6ded74c0fe21e72daa563fb16a5731dbef57fa10746b81094078d6d5268a6a79',
    'lti-remark1/aug.field': 'd129fa9f2d7ae0d3133e55fbcaf30216dadfdddce7f7953647948a9f87656739',
    'lti-remark1/aug.output': '7bb22135215a831b9b7f64edd7457e24eafc066ca33e7af06fbff590cbe3f1da',
    'lti-remark1-badout/vector_field': '6ded74c0fe21e72daa563fb16a5731dbef57fa10746b81094078d6d5268a6a79',
    'lti-remark1-badout/aug.field': 'd129fa9f2d7ae0d3133e55fbcaf30216dadfdddce7f7953647948a9f87656739',
    'lti-remark1-badout/aug.output': '8612e1b5bc6e277c443d21f1d21226c9550a0c35be6c1b925748676a0f79a4ef',
    # re-recorded when x^3 became (x*x)*x: 11 of 670 values moved, by at
    # most 5.4e-15 relative
    'ex1-timevarying/vector_field': 'c429d1a2cfc386721c908e87fc0665de661c7aceaca7620b38a74cbba35b8d62',
    # re-recorded likewise: 14 of 33,596 values moved, by at most 3.7e-16
    'ex1-timevarying/aug.field': '0982751da67c44fdac5f3599a8949c8a8e4112be483bb3634ed08a746b292045',
    'ex1-timevarying/aug.output': 'ea2cdf4d8a570a573d3fca7837db5bd501f259bd62ea7ff52af0ab91495fe67d',
    'ex2-timeinvariant/vector_field': '2ee2aadbf8a3f65ea45a13f45bb103da4a0fc585aaf28ee61b2642b9449d7bb1',
    'ex2-timeinvariant/aug.field': '7fcb808481cbdbadc5f32ab2c655a00e7132b4b3670fd944a1f1587d5b047edf',
    'ex2-timeinvariant/aug.output': 'ea2cdf4d8a570a573d3fca7837db5bd501f259bd62ea7ff52af0ab91495fe67d',
}


@pytest.mark.parametrize("case", FIELD_CASES)
def test_field_values_match_golden(case):
    assert field_digest(case) == FIELD_GOLDEN[case]


# ---------------------------------------------------------------------------
# certificate reports and vdot
# ---------------------------------------------------------------------------

#: certificates over the built-ins: with abs (its derivative is sign),
#: with x and with t dependence
CERTIFICATES = ("(xi1 + xi2)^2", "xi1^2 + xi2^2", "abs(xi1) + 2*abs(xi2)",
                "exp(-0.5*t)*(xi1 + xi2)^2", "(1 + 0.1*x1^2)*xi1^2 + xi2^2",
                "(xi1 + xi2)^2 + 0.1*sin(x1 - x2)*xi1*xi2")

#: a time-varying set, a loose one with p = 1.5, and a time-invariant one
BOUND_SETS = (Bounds(1.0, 2.0, 0.0, 2.0), Bounds(0.25, 8.0, 0.5, 3.0, p=1.5),
              Bounds(1.0, 2.0, 2.0))

CERT_SEEDS = (3, 2 ** 63 + 11)

CERT_CASES = [f"{name}/{i}" for name in SYSTEMS
              for i in range(len(CERTIFICATES))]


def _cert_lines(name: str, V: CandidateV):
    """For every seed and bound set, `report_json` of the sandwich, the
    decay and the time-invariant sandwich+decay as JSON text (key order
    kept), or the message of the error a condition raised.
    `check_certificate` judges the conditions of the bound set's form;
    `_falsify` judges each condition of the other form alone."""
    spec = builtin_system(name)
    for seed in CERT_SEEDS:
        domain = CheckDomain(x_box=((-4.0, 4.0), (-4.0, 4.0)), samples=400,
                             seed=seed)
        for bounds in BOUND_SETS:
            conditions = (
                ("sandwich", lambda: lyapunov._sandwich(bounds, domain)),
                ("decay", lambda: lyapunov._decay(bounds)),
                ("time-invariant", lambda: lyapunov._time_invariant(
                    spec, V, bounds)))
            form = ("sandwich", "decay") if bounds.alpha4 is not None \
                else ("time-invariant",)
            try:
                reports = dict(zip(form, check_certificate(spec, V, bounds,
                                                           domain)))
            except ValueError as err:
                reports = dict.fromkeys(form, err)
            for key, condition in conditions:
                if key not in reports:
                    try:
                        reports[key] = lyapunov._falsify(
                            spec, V, domain, [condition()],
                            at_time_zero=key == "time-invariant")[0]
                    except ValueError as err:
                        reports[key] = err
                yield f"error: {reports[key]}" \
                    if isinstance(reports[key], ValueError) \
                    else json.dumps(report_json(reports[key]))


def _vdot_rows():
    """257 rows of (x1, x2, xi1, xi2, t), each coordinate a SPECIAL value
    or a uniform draw."""
    rng = np.random.default_rng(29)
    rows = rng.choice(np.array(SPECIAL), size=(257, 5))
    plain = rng.uniform(-3.0, 3.0, size=rows.shape)
    return np.where(rng.random(rows.shape) < 0.5, plain, rows)


def cert_digest(case: str) -> str:
    name, index = case.split("/")
    h = hashlib.sha256()
    for line in _cert_lines(name,
                            CandidateV.from_string(CERTIFICATES[int(index)])):
        _feed(h, line)
    return h.hexdigest()


def vdot_digest(case: str) -> str:
    name, index = case.split("/")
    rows = _vdot_rows()
    h = hashlib.sha256()
    _feed(h, vdot(builtin_system(name),
                  CandidateV.from_string(CERTIFICATES[int(index)]),
                  rows[:, :2], rows[:, 2:4], rows[:, 4]))
    return h.hexdigest()


#: case (system/certificate index) -> sha256 of its reports
CERT_GOLDEN = {
    'lti-remark1/0': '792f755df13016cffa83939aec8f0db126f399b474639dc9db25bdcf21a651ad',
    'lti-remark1/1': 'a296391ee8f50ef00eb2c5f7f675c1d4cc71495d72bffe24093f1b972519655c',
    'lti-remark1/2': '1ffe63b4ed6486e57fb272b81291bb06d0a802bd9bb51234f41372dab918e5b3',
    'lti-remark1/3': '2d8f3121f9df61d4868e0b74ed00169ee50008615dbb406bfe33088e8f5291ea',
    'lti-remark1/4': '127555471ad6015d74bc65a553e5d00b042653f6d4589579ea62a3db920b1d93',
    'lti-remark1/5': '755aedb94f8d9980bcadc69569c2ca7033f90f4b982b62f5b3e84e79e6941d56',
    'lti-remark1-badout/0': '5306ebadf86e5640832b76e94bf936b9659fee130cc9f0da21109fbdd4483276',
    'lti-remark1-badout/1': '5b2fe50c97517e847b0b5c97ddeb6dfb8230efb1e858560e3997b8efe246457b',
    'lti-remark1-badout/2': '3f89dddf78ebb5e9f22dec45123ccf267c24828cfdc31671738ba8e8a5b6750c',
    'lti-remark1-badout/3': 'e0411630163bc207edc36abd08151b3b8dd9a3432dbdb1e8f6e2e7aee8327c5a',
    'lti-remark1-badout/4': 'ca99a604fbe2be8c202007a0ce97cbb2e63b906e5c84cf493ac09842be379be8',
    'lti-remark1-badout/5': 'ae4ccb2bbecc088de932a63556db93c6d392723a51635d68c7b3fde83844acad',
    'ex1-timevarying/0': '5e9e0308f5e52a19eb80b2352e0066c96ab720f2ded418226d45d3a06b139887',
    'ex1-timevarying/1': 'ab8a591c7101f94c003d8de7e1a1936b90583012f5104a06e0f147d992afa861',
    'ex1-timevarying/2': 'ba957fb33c4b67873df1090affe9a84b9e4f10aaa22b5a7d2aded776d67c6e30',
    'ex1-timevarying/3': 'a9a93f3cc4a0ab3baf8c415f4c13ca6ee201d3ed780f6b49f14691234f4bc076',
    'ex1-timevarying/4': '51d18322f4ac093071c89f9779f0c5a652fea85a85089d70f9c4f659c6d25d18',
    'ex1-timevarying/5': 'd407ba88474e9683dee0e88d32ab67115d77524d7273c0820b4dfbe33bc597f5',
    'ex2-timeinvariant/0': '2353e74244a54b69dce1a1946ad7d1f7041666e9b38f19810a058fa17a6a8e5e',
    'ex2-timeinvariant/1': '8122108d831b6be310ff906e911a15dc227386b8f3f1f666957bb5d47c9bddde',
    'ex2-timeinvariant/2': '384e9f9d6574552d3c7ab3f83a45e916bc5b1ac34320008287bf55e9850d0864',
    'ex2-timeinvariant/3': 'd2f3cefa4375ca2270a6610a43c32b68b480254bf018d5a1aa470f08608ccd7b',
    'ex2-timeinvariant/4': '5e146b13b319792d9fbd99ad1870a03bd216700037ed740393ae7b72bd35dec0',
    'ex2-timeinvariant/5': '839ba3303ac54e40a84702c47168e204e8c24c9c3c744a0f1f9a25f1531d103a',
}

#: case (system/certificate index) -> sha256 of vdot on the 257 rows.
#: All re-recorded when Vdot became one compiled symbolic tree instead of
#: dual-number partials: no row with every coordinate below 1e200 moved,
#: and no row that was a number (test_vdot_matches_the_dual_number_oracle).
#: On rows with an inf, nan or 1e200 coordinate, a nan's sign bit follows
#: the new order of operations, and where the dual numbers multiplied a zero
#: partial by inf the tree has no such product, so nan becomes +-inf or 0.0
VDOT_GOLDEN = {
    # 16 nan rows change sign
    'lti-remark1/0': 'b02cd4648c7d68f72054c8a49dee794a5d877dff9ff6d4f33be6fa5ae50648b1',
    # 19 nan rows change sign; 14 nan rows become +-inf
    'lti-remark1/1': '54f62fb9a71c3deafca771b6642859e786069e7bfe438ecb407018f02ec7d16d',
    # 14 nan rows change sign; 7 nan rows become +-inf
    'lti-remark1/2': '7365f6907babd5c307ed6fbdaa97874dd3656d75badf0edfba53a8684e2ff17f',
    # 18 nan rows change sign; 2 nan rows become +-inf, 6 become 0.0
    'lti-remark1/3': 'b44b63bd8cf04dbb21dfd9419dc085ab404f468fcc9c6a526c4566e21c52d8dc',
    # 12 nan rows change sign; 42 nan rows become +-inf
    'lti-remark1/4': 'f30535818515ce5bdf04a6ed284fc66c131271a2d0f5e87b555361133ccb3232',
    # 16 nan rows change sign
    'lti-remark1/5': '4e4e98b1d8c6479529c8fa8f4da5b1a64969163be8510ae720332cdb4ca5d1c1',
    # 16 nan rows change sign
    'lti-remark1-badout/0': 'b02cd4648c7d68f72054c8a49dee794a5d877dff9ff6d4f33be6fa5ae50648b1',
    # 19 nan rows change sign; 14 nan rows become +-inf
    'lti-remark1-badout/1': '54f62fb9a71c3deafca771b6642859e786069e7bfe438ecb407018f02ec7d16d',
    # 14 nan rows change sign; 7 nan rows become +-inf
    'lti-remark1-badout/2': '7365f6907babd5c307ed6fbdaa97874dd3656d75badf0edfba53a8684e2ff17f',
    # 18 nan rows change sign; 2 nan rows become +-inf, 6 become 0.0
    'lti-remark1-badout/3': 'b44b63bd8cf04dbb21dfd9419dc085ab404f468fcc9c6a526c4566e21c52d8dc',
    # 12 nan rows change sign; 42 nan rows become +-inf
    'lti-remark1-badout/4': 'f30535818515ce5bdf04a6ed284fc66c131271a2d0f5e87b555361133ccb3232',
    # 16 nan rows change sign
    'lti-remark1-badout/5': '4e4e98b1d8c6479529c8fa8f4da5b1a64969163be8510ae720332cdb4ca5d1c1',
    # 23 nan rows change sign; 6 nan rows become +-inf
    'ex1-timevarying/0': '7e1fcf4cac0b92fa6f19c857f9694d74d326f2275d8edc9d50e6b6f93af6eff2',
    # 26 nan rows change sign; 9 nan rows become +-inf
    'ex1-timevarying/1': '5dc47bc9c3b632a2d48219de5fb8b2570757dd7f196741acd290d90474396252',
    # 19 nan rows change sign; 5 nan rows become +-inf
    'ex1-timevarying/2': '528773c35b22de2a284cd37e3b308945076e31c01c4353194ed6043191c06662',
    # 18 nan rows change sign; 14 nan rows become +-inf
    'ex1-timevarying/3': 'dc1e4e240c8f06c43755e2b9a5407adf3d55f65fa1b54adeeaa85819459e4f67',
    # 22 nan rows change sign; 19 nan rows become +-inf.  Re-recorded when
    # x^3 became (x*x)*x: 1 row moved, by 1.8e-16 relative
    'ex1-timevarying/4': '6f6f9834b1722327e5135892019f44273a9c6b027a6f1dae208a9af8f0d325c5',
    # 18 nan rows change sign.  Re-recorded when x^3 became (x*x)*x: 1 row
    # moved, by 1.5e-16 relative
    'ex1-timevarying/5': '32bf77c467cc43ddba71a5c8cc1e7458bf538b22afd7afb9819faba5e65de474',
    # 16 nan rows change sign; 20 nan rows become +-inf
    'ex2-timeinvariant/0': '16d0456ac5e0d3717f7296824115b596f01cc19b02477844d89c26a172e355f9',
    # 19 nan rows change sign; 12 nan rows become +-inf
    'ex2-timeinvariant/1': 'cfe7e75c806ab20552ea95805b163051566abb038c39ecb6c23f4f478ae0028b',
    # 14 nan rows change sign; 8 nan rows become +-inf
    'ex2-timeinvariant/2': '661548dce3671dc158e8e6cd255c79e7960516f94bd0f6a9f4c1dda05007a189',
    # 18 nan rows change sign; 31 nan rows become +-inf, 6 become 0.0
    'ex2-timeinvariant/3': '7916efa7dbd3e71d67202d16b4fb3cd648ee0421c6eacc98011cc2dda7826cb7',
    # 12 nan rows change sign; 26 nan rows become +-inf
    'ex2-timeinvariant/4': 'b3267057d6db73024d78395aae0184ddcbbfeb23a59f3d5d47adfbe6a99dfcd4',
    # 16 nan rows change sign; 2 nan rows become +-inf
    'ex2-timeinvariant/5': 'e22a4d555659daf50b749229110e7adea9edb79808c63e90165291468f5f7417',
}


@pytest.mark.parametrize("case", CERT_CASES)
def test_certificate_reports_match_golden(case):
    assert cert_digest(case) == CERT_GOLDEN[case]


@pytest.mark.parametrize("case", CERT_CASES)
def test_vdot_matches_golden(case):
    assert vdot_digest(case) == VDOT_GOLDEN[case]


@pytest.mark.parametrize("case", CERT_CASES)
def test_vdot_matches_the_dual_number_oracle(case):
    # bit for bit wherever the dual numbers give a number.  Where they give
    # nan, a row holding an infinite, nan or 1e200 coordinate may differ:
    # the dual numbers carry zero partials along and multiply them by an
    # infinite value, the compiled tree has dropped them (nan there, inf or
    # 0 here), and the sign bit of a nan follows each path's operations
    name, index = case.split("/")
    spec = builtin_system(name)
    V = CandidateV.from_string(CERTIFICATES[int(index)])
    rows = _vdot_rows()
    got = vdot(spec, V, rows[:, :2], rows[:, 2:4], rows[:, 4])
    want = dual_vdot(spec, V, rows[:, :4], rows[:, 4])
    same = got.view(np.uint64) == want.view(np.uint64)
    assert np.all(same | np.isnan(want))
    ordinary = np.all(np.abs(rows) < 1e200, axis=1)
    assert ordinary.sum() > 30 and np.all(same[ordinary])


#: alpha4 of the reference `lyapunov` runs: a passing and a falsified one
CLI_ALPHA4 = ("2", "12")


def cli_digest(alpha4: str) -> str:
    """sha256 of the exit code and results of the reference 1e5-sample
    `lyapunov` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lyapunov", "--system", "ex1-timevarying",
                     "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
                     "--alpha3", "0", "--alpha4", alpha4, "--p", "2",
                     "--samples", "100000"])
    results = json.loads(out.getvalue())["results"]
    text = json.dumps([code, results], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: alpha4 -> sha256 of the exit code and the results
CLI_GOLDEN = {
    '2': '48fee2aaa5c342e72f73b4f354edbd7e072fb0a4fd7b0c42698b0fda1cb1ab3f',
    '12': 'df1545f33027c63755a4cfba7d41bf1be8c4ff70c61532e6c8be1f75df941f37',
}


@pytest.mark.parametrize("alpha4", CLI_ALPHA4)
def test_reference_lyapunov_run_matches_golden(alpha4):
    assert cli_digest(alpha4) == CLI_GOLDEN[alpha4]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in _cases():
        summary, digest = fingerprint(_run(case))
        print(f"    {case!r}: (\n        {summary!r},\n        {digest!r}),")
    print("}")
    print("FIELD_GOLDEN = {")
    for case in FIELD_CASES:
        print(f"    {case!r}: {field_digest(case)!r},")
    print("}")
    print("CERT_GOLDEN = {")
    for case in CERT_CASES:
        print(f"    {case!r}: {cert_digest(case)!r},")
    print("}")
    print("VDOT_GOLDEN = {")
    for case in CERT_CASES:
        print(f"    {case!r}: {vdot_digest(case)!r},")
    print("}")
    print("CLI_GOLDEN = {")
    for alpha4 in CLI_ALPHA4:
        print(f"    {alpha4!r}: {cli_digest(alpha4)!r},")
    print("}")
